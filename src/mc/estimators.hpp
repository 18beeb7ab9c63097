// Monte-Carlo estimators for the paper's quantities: C_i, C^k_i, h(u,v),
// and the speed-up S^k = C / C^k with propagated uncertainty.
//
// Every cover estimator is one call of the funnel estimate_cover over one
// of two engine sources (InCore, OutOfCore); its reproducibility contract
// is stated once, at estimate_cover.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/substrate.hpp"
#include "mc/monte_carlo.hpp"
#include "walk/cover.hpp"
#include "walk/sampling.hpp"

namespace manywalks {

/// The thread-budget plan every in-core cover estimate runs under
/// (InCore::plan): decides once per estimate whether the pool fans out
/// over trials (kTrials) or is handed down to the lane-sharded engine
/// (kLanes), and writes the decision into the option COPIES the estimate
/// will run with. Lanes mode is opt-in: kLanes exactly when the caller
/// pinned CoverOptions::lane_shards > 0 (kept as is), kTrials otherwise —
/// on few long k = 4096 trials, trial-parallel measured about 1.6x faster
/// than the sharded driver at 3 executors (docs/ARCHITECTURE.md). Either
/// way shard_pool is overwritten (pool under kLanes, null under kTrials),
/// so a second call on the written options changes nothing. Returns the
/// decision so call sites can report it. The lane count does not enter
/// the rule; it stays a parameter for the library clients (perfbench)
/// that call with it.
inline McParallelism apply_thread_budget(std::size_t /*lanes*/,
                                         ThreadPool* pool, McOptions& mc,
                                         CoverOptions& cover) {
  const bool sharded = cover.lane_shards > 0;
  mc.parallelism = sharded ? McParallelism::kLanes : McParallelism::kTrials;
  cover.shard_pool = sharded ? pool : nullptr;
  return mc.parallelism;
}

// --- engine sources ----------------------------------------------------------
//
// A source hands each trial an engine — both engines model reset(starts) /
// run_until_visited(target, rng, cover) — and plans how the estimate
// spends its thread budget.

/// In-core source: each trial runs on the calling thread's pooled
/// WalkEngineT<S> (walk/cover.hpp), so trials may fan out over the pool
/// and the estimate is planned by apply_thread_budget.
template <Substrate S>
struct InCore {
  explicit InCore(S bound) : substrate(std::move(bound)) {}

  Vertex num_vertices() const { return substrate.num_vertices(); }
  ThreadPool* plan(std::size_t lanes, ThreadPool* pool, McOptions& mc,
                   CoverOptions& cover) const {
    apply_thread_budget(lanes, pool, mc, cover);
    return pool;
  }
  CoverSample walk(std::span<const Vertex> starts, Vertex target, Rng& rng,
                   const CoverOptions& cover) const {
    return sample_cover_to_target(substrate, starts, target, rng, cover);
  }

  S substrate;
};

class BlockWalkEngine;

/// Engine/cache activity aggregated across an out-of-core run. Every trial
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

/// Out-of-core source: one shared BlockWalkEngine (walk/block_engine.hpp)
/// — and so one extent cache — walks every trial, which keeps the trial
/// loop serial on the caller: the plan is kLanes with no pool and no lane
/// shards. Engine counters restart at each trial; `totals`, when set,
/// collects the per-trial aggregate for a run summary.
struct OutOfCore {
  BlockWalkEngine& engine;
  BlockedRunTotals* totals = nullptr;

  Vertex num_vertices() const;
  ThreadPool* plan(std::size_t lanes, ThreadPool* pool, McOptions& mc,
                   CoverOptions& cover) const;
  CoverSample walk(std::span<const Vertex> starts, Vertex target, Rng& rng,
                   const CoverOptions& cover) const;
};

// --- the funnel --------------------------------------------------------------

/// THE cover estimator: the expected rounds for k tokens, placed by
/// `draw_starts` (walk/sampling.hpp placements), to visit `target`
/// distinct vertices — target = n is the cover time; fixed partial targets
/// are what the giant-graph experiments sample, where full cover is out of
/// reach. Trial i draws make_trial_rng(mc.seed, i) and trials reduce in
/// index order, so an estimate is bit-identical across thread counts and
/// across the two engine sources. `samples`, when set, receives each
/// trial's value in trial order.
template <class Engines, class DrawStarts>
McResult estimate_cover(const Engines& engines, std::size_t k,
                        const DrawStarts& draw_starts, Vertex target,
                        const McOptions& mc, const CoverOptions& cover = {},
                        ThreadPool* pool = nullptr,
                        std::vector<double>* samples = nullptr) {
  MW_REQUIRE(k >= 1, "k must be >= 1");
  McOptions mc_run = mc;
  CoverOptions cover_run = cover;
  pool = engines.plan(k, pool, mc_run, cover_run);
  if (samples != nullptr) samples->assign(mc_run.max_trials, 0.0);
  McResult result = run_monte_carlo(
      [&](std::uint64_t index, Rng& rng) {
        std::vector<Vertex> starts(k);
        draw_starts(rng, std::span<Vertex>(starts));
        const CoverSample sample = engines.walk(starts, target, rng, cover_run);
        const auto steps = static_cast<double>(sample.steps);
        if (samples != nullptr) (*samples)[index] = steps;
        return TrialOutcome{steps, !sample.covered};
      },
      mc_run, pool);
  if (samples != nullptr) samples->resize(result.stats.count());
  return result;
}

// --- cover estimators: one-line calls of the funnel --------------------------

/// k tokens at `start` to `target` distinct vertices on a substrate.
template <Substrate S>
McResult estimate_cover_to_target(const S& substrate, Vertex start, unsigned k,
                                  Vertex target, const McOptions& mc,
                                  const CoverOptions& cover = {},
                                  ThreadPool* pool = nullptr) {
  return estimate_cover(InCore(substrate), k, same_vertex_starts(start),
                        target, mc, cover, pool);
}

/// The k-walk expected cover time C^k_start (k tokens at start).
template <Walkable G>
McResult estimate_k_cover_time(const G& g, Vertex start, unsigned k,
                               const McOptions& mc,
                               const CoverOptions& cover = {},
                               ThreadPool* pool = nullptr) {
  const auto& substrate = as_substrate(g);
  return estimate_cover_to_target(substrate, start, k,
                                  substrate.num_vertices(), mc, cover, pool);
}

/// The single-walk expected cover time C_start.
template <Walkable G>
McResult estimate_cover_time(const G& g, Vertex start, const McOptions& mc,
                             const CoverOptions& cover = {},
                             ThreadPool* pool = nullptr) {
  return estimate_k_cover_time(g, start, 1, mc, cover, pool);
}

/// The cover time of a k-walk with explicit starting vertices.
inline McResult estimate_multi_cover_time(const Graph& g,
                                          std::span<const Vertex> starts,
                                          const McOptions& mc,
                                          const CoverOptions& cover = {},
                                          ThreadPool* pool = nullptr) {
  return estimate_cover(InCore(CsrSubstrate(g)), starts.size(),
                        fixed_starts(starts), g.num_vertices(), mc, cover,
                        pool);
}

/// k-walk cover time with the k starting vertices RE-DRAWN each trial from
/// the stationary distribution — the setting of the paper's §1.1
/// comparison with Broder et al. (expected O(m^2 log^3 n / k^2)) and of
/// the Lemma 19 remark (O(n log n / k) on expanders).
inline McResult estimate_stationary_start_cover(const Graph& g, unsigned k,
                                                const McOptions& mc,
                                                const CoverOptions& cover = {},
                                                ThreadPool* pool = nullptr) {
  return estimate_cover(InCore(CsrSubstrate(g)), k,
                        stationary_starts(g.offsets()), g.num_vertices(), mc,
                        cover, pool);
}

/// Raw k-walk cover-time samples (k tokens from `start`): `trials` fixed
/// trials under master seed `seed`, one value per trial, in trial order.
/// For distribution/concentration studies (paper Thm 17: tau/C -> 1 when
/// C/h_max -> infinity).
inline std::vector<double> collect_cover_samples(
    const Graph& g, Vertex start, unsigned k, std::uint64_t trials,
    std::uint64_t seed, const CoverOptions& cover = {},
    ThreadPool* pool = nullptr) {
  MW_REQUIRE(trials >= 1, "need at least one trial");
  McOptions mc;
  mc.min_trials = trials;
  mc.max_trials = trials;
  mc.seed = seed;
  std::vector<double> samples;
  estimate_cover(InCore(CsrSubstrate(g)), k, same_vertex_starts(start),
                 g.num_vertices(), mc, cover, pool, &samples);
  return samples;
}

/// Expected rounds for k tokens at `start` to visit `target` distinct
/// vertices through the block engine: estimate_cover over
/// OutOfCore{engine, totals}. Kept as the perfbench `ooc` entry point.
McResult estimate_cover_to_target_blocked(BlockWalkEngine& engine,
                                          Vertex start, unsigned k,
                                          Vertex target, const McOptions& mc,
                                          const CoverOptions& cover = {},
                                          BlockedRunTotals* totals = nullptr);

// --- speed-up ----------------------------------------------------------------

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

/// Combines two cover-time estimates into a speed-up with propagated error.
SpeedupEstimate combine_speedup(unsigned k, const McResult& single,
                                const McResult& multi);

/// Estimates S^k = T¹(target)/T^k(target) across several k on either
/// engine source, with the curve's seeding stated once: the k = 1
/// baseline runs on stream mix64(seed ^ 0x1a1c) and is reused for every
/// k; each k > 1 runs on mix64(seed ^ (0xbeef00 + k)).
template <class Engines>
std::vector<SpeedupEstimate> estimate_speedup_curve_to_target(
    const Engines& engines, Vertex start, Vertex target,
    std::span<const unsigned> ks, const McOptions& mc,
    const CoverOptions& cover = {}, ThreadPool* pool = nullptr) {
  MW_REQUIRE(!ks.empty(), "need at least one k");
  const auto estimate = [&](unsigned k, std::uint64_t salt) {
    McOptions seeded = mc;
    seeded.seed = mix64(mc.seed ^ salt);
    return estimate_cover(engines, k, same_vertex_starts(start), target,
                          seeded, cover, pool);
  };
  const McResult single = estimate(1, 0x1a1cULL);

  std::vector<SpeedupEstimate> curve;
  curve.reserve(ks.size());
  for (unsigned k : ks) {
    MW_REQUIRE(k >= 1, "k must be >= 1");
    const McResult multi = k == 1 ? single : estimate(k, 0xbeef00ULL + k);
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

/// S^k across several k for full cover, reusing one k = 1 baseline.
template <Walkable G>
std::vector<SpeedupEstimate> estimate_speedup_curve(
    const G& g, Vertex start, std::span<const unsigned> ks,
    const McOptions& mc, const CoverOptions& cover = {},
    ThreadPool* pool = nullptr) {
  const auto& substrate = as_substrate(g);
  return estimate_speedup_curve_to_target(InCore(substrate), start,
                                          substrate.num_vertices(), ks, mc,
                                          cover, pool);
}

/// S^k at a single k (runs both the 1-walk and the k-walk).
inline SpeedupEstimate estimate_speedup(const Graph& g, Vertex start,
                                        unsigned k, const McOptions& mc,
                                        const CoverOptions& cover = {},
                                        ThreadPool* pool = nullptr) {
  const unsigned ks[1] = {k};
  return estimate_speedup_curve(g, start, ks, mc, cover, pool).front();
}

// --- beyond cover ------------------------------------------------------------

/// Estimates h(from, to) for a single walk (sample_hitting_time trials;
/// laziness and the round cap come from `cover`).
McResult estimate_hitting_time(const Graph& g, Vertex from, Vertex to,
                               const McOptions& mc,
                               const CoverOptions& cover = {},
                               ThreadPool* pool = nullptr);

}  // namespace manywalks
