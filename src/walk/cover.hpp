// Cover-time sampling for single walks and k-walks (the paper's central
// random variables τ_i and τ^k_i), and k-walk hitting times as cover runs
// to a target set. Each sampler is one template over Walkable: an explicit
// Graph walks through its CsrSubstrate, an implicit substrate
// (graph/substrate.hpp) as itself, with no CSR ever built — the per-thread
// engine's n/8-byte visit tracker is then the only O(n) allocation, which
// is what lets the giant-graph experiments run at n = 10^7–10^8.
//
// Timing convention: the starting vertices count as visited at t = 0, and
// in each round every token takes one step. The sampled value is the first
// round index t at which all vertices have been visited. (The paper's
// formal definition starts the visited set at X(1); the difference is a
// lower-order term and the conventional definition matches the closed forms
// we test against, e.g. C(cycle) = n(n-1)/2.)
//
// Every sampler runs the engine's lane kernels (per-token streams,
// determinism contract v2).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/substrate.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"
#include "walk/cover_types.hpp"
#include "walk/engine.hpp"
#include "walk/visit_tracker.hpp"

namespace manywalks {

/// Reusable per-thread engine, one cached instance per substrate TYPE per
/// thread: a Monte-Carlo estimate walks thousands of trials on the same
/// substrate from pool worker threads, and rebinding is a value comparison
/// away (a CsrSubstrate compares its array identities, so a cached engine
/// never runs on a different graph). Every sampler here runs on it;
/// Monte-Carlo estimates go through mc/estimators.hpp's estimate_cover
/// instead of looping over these.
template <Substrate S>
WalkEngineT<S>& pooled_substrate_engine(const S& substrate) {
  thread_local std::optional<WalkEngineT<S>> engine;
  if (!engine.has_value() || !(engine->substrate() == substrate)) {
    engine.emplace(substrate);
  }
  return *engine;
}

/// One k-walk trial run until `target` distinct vertices are visited or
/// the cap is reached (the primitive the fixed-target giant experiments
/// sample: full cover at n = 10^8 is out of reach, partial cover is not).
/// Every cover sampler here, and the InCore engine source, delegates
/// through it.
template <Substrate S>
CoverSample sample_cover_to_target(const S& substrate,
                                   std::span<const Vertex> starts,
                                   Vertex target, Rng& rng,
                                   const CoverOptions& options = {}) {
  WalkEngineT<S>& engine = pooled_substrate_engine(substrate);
  engine.reset(starts);
  return engine.run_until_visited(target, rng, options);
}

/// One cover-time sample of a single walk from `start`.
template <Walkable G>
CoverSample sample_cover_time(const G& g, Vertex start, Rng& rng,
                              const CoverOptions& options = {}) {
  const auto& substrate = as_substrate(g);
  const Vertex starts[1] = {start};
  return sample_cover_to_target(substrate, starts, substrate.num_vertices(),
                                rng, options);
}

/// One cover-time sample of a k-walk with explicit starting vertices (the
/// paper's walks all start at the same vertex, but Lemma 16 and the
/// stationary-start discussion need arbitrary starts).
template <Walkable G>
CoverSample sample_multi_cover_time(const G& g,
                                    std::span<const Vertex> starts, Rng& rng,
                                    const CoverOptions& options = {}) {
  const auto& substrate = as_substrate(g);
  return sample_cover_to_target(substrate, starts, substrate.num_vertices(),
                                rng, options);
}

/// One cover-time sample of k walks all starting at `start` (τ^k_start).
template <Walkable G>
CoverSample sample_k_cover_time(const G& g, Vertex start, unsigned k,
                                Rng& rng, const CoverOptions& options = {}) {
  MW_REQUIRE(k >= 1, "k must be >= 1");
  std::vector<Vertex> starts(k, start);
  const auto& substrate = as_substrate(g);
  return sample_cover_to_target(substrate, starts, substrate.num_vertices(),
                                rng, options);
}

/// Rounds until some token stands on a vertex of `targets` (the k-walk
/// hitting time of the set; the paper's search and hunting quantity). Runs
/// on the same engine as cover: every vertex outside the set starts
/// visited, so the run is a cover run to n - |distinct targets| + 1
/// vertices. A start on a target gives 0 rounds; covered == false iff
/// `options.step_cap` was reached first.
template <Walkable G>
CoverSample sample_hitting_time(const G& g, std::span<const Vertex> starts,
                                std::span<const Vertex> targets, Rng& rng,
                                const CoverOptions& options = {}) {
  const auto& substrate = as_substrate(g);
  MW_REQUIRE(!targets.empty(), "hitting time needs at least one target");
  std::vector<Vertex> distinct(targets.begin(), targets.end());
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  auto& engine = pooled_substrate_engine(substrate);
  engine.reset(starts, targets);
  return engine.run_until_visited(
      substrate.num_vertices() - static_cast<Vertex>(distinct.size()) + 1,
      rng, options);
}

/// Rounds until at least ceil(fraction * n) distinct vertices are visited.
CoverSample sample_partial_cover_time(const Graph& g,
                                      std::span<const Vertex> starts,
                                      double fraction, Rng& rng,
                                      const CoverOptions& options = {});

/// Number of distinct vertices visited after each recorded time step; used
/// for coverage-vs-time plots.
struct CoverageCurve {
  std::vector<std::uint64_t> times;
  std::vector<Vertex> visited;
  bool truncated = false;  ///< true iff options.step_cap cut the run short
};

/// Runs a k-walk for `total_steps` rounds recording coverage every
/// `record_every` rounds (and at t=0 and the final round). If
/// `options.step_cap` is smaller than `total_steps` the run stops at the
/// cap and the curve is marked truncated.
CoverageCurve sample_coverage_curve(const Graph& g,
                                    std::span<const Vertex> starts,
                                    std::uint64_t total_steps,
                                    std::uint64_t record_every, Rng& rng,
                                    const CoverOptions& options = {});

/// Per-vertex visit counts of a single walk over `num_steps` steps
/// (including the start's t=0 occupancy).
std::vector<std::uint64_t> sample_visit_counts(const Graph& g, Vertex start,
                                               std::uint64_t num_steps,
                                               Rng& rng,
                                               const CoverOptions& options = {});

}  // namespace manywalks
