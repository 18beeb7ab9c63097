// Monte-Carlo estimators for the paper's quantities: C_i, C^k_i, h(u,v),
// and the speed-up S^k = C / C^k with propagated uncertainty.
//
// Every cover estimator funnels through the cover.hpp samplers, so
// estimates are sampled by the engine's lane kernels (determinism contract
// v2): trial i under master seed s sees make_trial_rng(s, i), the engine
// derives its per-token streams from one draw of that stream, and results
// reduce in trial order, so estimates stay bit-identical across thread
// counts.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/substrate.hpp"
#include "mc/monte_carlo.hpp"
#include "walk/cover.hpp"
#include "walk/hitting.hpp"

namespace manywalks {

/// The thread-budget arbitration applied by every cover estimator before it
/// enters run_monte_carlo, and the only place a lane-shard count is picked:
/// decides once per estimate whether the pool fans out over trials
/// (kTrials) or is handed down to the lane-sharded engine (kLanes), and
/// writes the decision into the option COPIES the estimate will run with.
/// An explicit CoverOptions::lane_shards pins lane mode and is kept as is;
/// otherwise choose_parallelism decides from the trial budget, the lane
/// count, and the pool width, and kLanes writes auto_lane_shards(lanes).
/// kTrials leaves lane_shards 0. Either way shard_pool is overwritten (pool
/// under kLanes, null under kTrials). A second call on the written options
/// changes nothing. Returns the decision so call sites can report it;
/// callers wanting manual control of the engine's pool should use the
/// cover.hpp samplers directly.
inline McParallelism apply_thread_budget(std::size_t lanes, ThreadPool* pool,
                                         McOptions& mc, CoverOptions& cover) {
  const unsigned pool_threads = pool != nullptr ? pool->size() : 0;
  const McParallelism mode =
      cover.lane_shards > 0
          ? McParallelism::kLanes
          : choose_parallelism(mc.max_trials, lanes, pool_threads);
  const bool sharded = mode == McParallelism::kLanes;
  mc.parallelism = mode;
  if (sharded && cover.lane_shards == 0) {
    cover.lane_shards = auto_lane_shards(lanes);
  }
  cover.shard_pool = sharded ? pool : nullptr;
  return mode;
}

/// Estimates the single-walk expected cover time C_start.
McResult estimate_cover_time(const Graph& g, Vertex start,
                             const McOptions& mc, const CoverOptions& cover = {},
                             ThreadPool* pool = nullptr);

/// Estimates the k-walk expected cover time C^k_start (k tokens at start).
McResult estimate_k_cover_time(const Graph& g, Vertex start, unsigned k,
                               const McOptions& mc,
                               const CoverOptions& cover = {},
                               ThreadPool* pool = nullptr);

/// Estimates the cover time of a k-walk with explicit starting vertices.
McResult estimate_multi_cover_time(const Graph& g,
                                   std::span<const Vertex> starts,
                                   const McOptions& mc,
                                   const CoverOptions& cover = {},
                                   ThreadPool* pool = nullptr);

/// Estimates h(from, to) for a single walk.
McResult estimate_hitting_time(const Graph& g, Vertex from, Vertex to,
                               const McOptions& mc, const HitOptions& hit = {},
                               ThreadPool* pool = nullptr);

/// C(G) = max_i C_i over the supplied candidate starts (each estimated
/// independently; returns the max and its argmax).
struct MaxCoverEstimate {
  McResult result;
  Vertex argmax_start = 0;
};
MaxCoverEstimate estimate_max_cover_time(const Graph& g,
                                         std::span<const Vertex> starts,
                                         const McOptions& mc,
                                         const CoverOptions& cover = {},
                                         ThreadPool* pool = nullptr);

/// A measured speed-up point S^k = Ĉ / Ĉ^k.
struct SpeedupEstimate {
  unsigned k = 1;
  McResult single;  ///< Ĉ (k = 1)
  McResult multi;   ///< Ĉ^k
  double speedup = 1.0;
  /// First-order propagated half-width:
  /// S * sqrt((δC/C)^2 + (δC^k/C^k)^2).
  double half_width = 0.0;
  /// Step-cap-censored trials feeding either side. When nonzero the ratio
  /// divides biased (lower-bound) means, so it is flagged everywhere it is
  /// rendered instead of being reported as a clean estimate.
  std::uint64_t censored = 0;
};

/// Estimates S^k at a single k (runs both the 1-walk and the k-walk).
SpeedupEstimate estimate_speedup(const Graph& g, Vertex start, unsigned k,
                                 const McOptions& mc,
                                 const CoverOptions& cover = {},
                                 ThreadPool* pool = nullptr);

/// Estimates S^k across several k, reusing one k=1 baseline estimate.
std::vector<SpeedupEstimate> estimate_speedup_curve(
    const Graph& g, Vertex start, std::span<const unsigned> ks,
    const McOptions& mc, const CoverOptions& cover = {},
    ThreadPool* pool = nullptr);

/// Combines two cover-time estimates into a speed-up with propagated error.
SpeedupEstimate combine_speedup(unsigned k, const McResult& single,
                                const McResult& multi);

/// Raw k-walk cover-time samples (k tokens from `start`), one value per
/// trial, in trial order. For distribution/concentration studies
/// (paper Thm 17: tau/C -> 1 when C/h_max -> infinity).
std::vector<double> collect_cover_samples(const Graph& g, Vertex start,
                                          unsigned k, std::uint64_t trials,
                                          std::uint64_t seed,
                                          const CoverOptions& cover = {},
                                          ThreadPool* pool = nullptr);

/// k-walk cover time with the k starting vertices RE-DRAWN each trial from
/// the stationary distribution — the setting of the paper's §1.1
/// comparison with Broder et al. (expected O(m^2 log^3 n / k^2)) and of
/// the Lemma 19 remark (O(n log n / k) on expanders).
McResult estimate_stationary_start_cover(const Graph& g, unsigned k,
                                         const McOptions& mc,
                                         const CoverOptions& cover = {},
                                         ThreadPool* pool = nullptr);

// --- substrate overloads -----------------------------------------------------
//
// The same estimators over an implicit (or CSR-wrapping) substrate, plus
// the fixed-target variants the giant-graph experiments are built on:
// full cover is Θ(n²) on a 10^8-cycle, but the time for k walks to visit a
// fixed number of distinct vertices is cheap to sample and shows the same
// speed-up regimes (the paper's own cycle argument, Lemmas 21/22, bounds
// exactly the spread of the k walks).

/// Estimates the expected rounds for k tokens started at `start` to visit
/// `target` distinct vertices (target = num_vertices() → C^k_start).
template <Substrate S>
McResult estimate_cover_to_target(const S& substrate, Vertex start, unsigned k,
                                  Vertex target, const McOptions& mc,
                                  const CoverOptions& cover = {},
                                  ThreadPool* pool = nullptr) {
  MW_REQUIRE(k >= 1, "k must be >= 1");
  McOptions mc_planned = mc;
  CoverOptions cover_planned = cover;
  apply_thread_budget(k, pool, mc_planned, cover_planned);
  return run_monte_carlo(
      [substrate, start, k, target, cover_planned](std::uint64_t, Rng& rng) {
        std::vector<Vertex> starts(k, start);
        const CoverSample sample =
            sample_cover_to_target(substrate, starts, target, rng, cover_planned);
        return TrialOutcome{static_cast<double>(sample.steps), !sample.covered};
      },
      mc_planned, pool);
}

template <Substrate S>
McResult estimate_cover_time(const S& substrate, Vertex start,
                             const McOptions& mc, const CoverOptions& cover = {},
                             ThreadPool* pool = nullptr) {
  return estimate_cover_to_target(substrate, start, 1,
                                  substrate.num_vertices(), mc, cover, pool);
}

template <Substrate S>
McResult estimate_k_cover_time(const S& substrate, Vertex start, unsigned k,
                               const McOptions& mc,
                               const CoverOptions& cover = {},
                               ThreadPool* pool = nullptr) {
  return estimate_cover_to_target(substrate, start, k,
                                  substrate.num_vertices(), mc, cover, pool);
}

/// The speed-up curve over a per-k estimate, with the curve's seeding
/// stated once for every backend: the k = 1 baseline runs on stream
/// mix64(seed ^ 0x1a1c) and is reused for every k; each k > 1 runs on
/// mix64(seed ^ (0xbeef00 + k)). `estimate(k, mc)` returns T^k under the
/// McOptions it is handed.
template <class Estimate>
std::vector<SpeedupEstimate> estimate_speedup_curve_with(
    std::span<const unsigned> ks, const McOptions& mc, Estimate&& estimate) {
  MW_REQUIRE(!ks.empty(), "need at least one k");
  McOptions base = mc;
  base.seed = mix64(mc.seed ^ 0x1a1cULL);  // distinct stream for the baseline
  const McResult single = estimate(1u, base);

  std::vector<SpeedupEstimate> curve;
  curve.reserve(ks.size());
  for (unsigned k : ks) {
    MW_REQUIRE(k >= 1, "k must be >= 1");
    McOptions per_k = mc;
    per_k.seed = mix64(mc.seed ^ (0xbeef00ULL + k));
    const McResult multi = k == 1 ? single : estimate(k, per_k);
    SpeedupEstimate est = combine_speedup(k, single, multi);
    if (k == 1) {
      // Numerator and denominator are the same estimate: S^1 is exactly 1
      // with no uncertainty (perfectly correlated errors) — and exactly 1
      // even when the baseline was censored, so the ratio is not flagged
      // (the T^1 column still is).
      est.half_width = 0.0;
      est.censored = 0;
    }
    curve.push_back(est);
  }
  return curve;
}

/// Estimates S^k = T¹(target)/T^k(target) across several k, reusing one
/// k = 1 baseline (seeding: estimate_speedup_curve_with).
template <Substrate S>
std::vector<SpeedupEstimate> estimate_speedup_curve_to_target(
    const S& substrate, Vertex start, Vertex target,
    std::span<const unsigned> ks, const McOptions& mc,
    const CoverOptions& cover = {}, ThreadPool* pool = nullptr) {
  std::unique_ptr<ThreadPool> local_pool;
  if (pool == nullptr) {
    local_pool = std::make_unique<ThreadPool>(mc.threads);
    pool = local_pool.get();
  }
  return estimate_speedup_curve_with(
      ks, mc, [&](unsigned k, const McOptions& mc_k) {
        return estimate_cover_to_target(substrate, start, k, target, mc_k,
                                        cover, pool);
      });
}

template <Substrate S>
std::vector<SpeedupEstimate> estimate_speedup_curve(
    const S& substrate, Vertex start, std::span<const unsigned> ks,
    const McOptions& mc, const CoverOptions& cover = {},
    ThreadPool* pool = nullptr) {
  return estimate_speedup_curve_to_target(substrate, start,
                                          substrate.num_vertices(), ks, mc,
                                          cover, pool);
}

// --- out-of-core (block-scheduled) overloads ---------------------------------
//
// The same fixed-target estimators over a shared BlockWalkEngine
// (walk/block_engine.hpp) instead of a substrate. One engine — and so
// one extent cache — serves every trial, which forces the trial loop
// serial: the options are pinned to kLanes parallelism with no pool
// (run_monte_carlo's serial caller loop) and the per-trial streams,
// reduction order, and seeding scheme are exactly the substrate
// overloads', so for a given (graph, seed) the estimates are
// BIT-IDENTICAL to the in-core path at any memory budget (determinism
// contract v4).

class BlockWalkEngine;

/// Engine/cache activity aggregated across a blocked run. Every trial
/// starts from zeroed counters (BlockWalkEngine::reset_stats), so these
/// are sums of independent per-trial readings — not points on one
/// monotone series — and the peak field is a true per-trial maximum.
/// Counters never feed back into walking, so resetting them is inert.
struct BlockedRunTotals {
  std::uint64_t trials = 0;
  std::uint64_t cache_loads = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_bytes_loaded = 0;
  std::uint64_t horizons = 0;
  std::uint64_t bucket_passes = 0;
  std::uint64_t peak_trial_bytes_loaded = 0;  // heaviest single trial

  /// Folds one finished trial's counters in (call before the next reset).
  void absorb(const BlockWalkEngine& engine);
};

/// Expected rounds for k tokens at `start` to visit `target` distinct
/// vertices, sampled through the out-of-core engine. Engine counters are
/// reset at each trial start; pass `totals` to collect the per-trial
/// aggregate for a run summary.
McResult estimate_cover_to_target_blocked(BlockWalkEngine& engine,
                                          Vertex start, unsigned k,
                                          Vertex target, const McOptions& mc,
                                          const CoverOptions& cover = {},
                                          BlockedRunTotals* totals = nullptr);

/// S^k curve with one reused k = 1 baseline (seeding:
/// estimate_speedup_curve_with).
std::vector<SpeedupEstimate> estimate_speedup_curve_to_target_blocked(
    BlockWalkEngine& engine, Vertex start, Vertex target,
    std::span<const unsigned> ks, const McOptions& mc,
    const CoverOptions& cover = {}, BlockedRunTotals* totals = nullptr);

}  // namespace manywalks
