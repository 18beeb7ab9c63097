#include "mc/estimators.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "walk/block_engine.hpp"

namespace manywalks {

McResult estimate_hitting_time(const Graph& g, Vertex from, Vertex to,
                               const McOptions& mc, const CoverOptions& cover,
                               ThreadPool* pool) {
  const CsrSubstrate substrate(g);
  const Vertex starts[1] = {from};
  const Vertex targets[1] = {to};
  return run_monte_carlo(
      [&](std::uint64_t, Rng& rng) {
        const CoverSample sample =
            sample_hitting_time(substrate, starts, targets, rng, cover);
        return TrialOutcome{static_cast<double>(sample.steps), !sample.covered};
      },
      mc, pool);
}

SpeedupEstimate combine_speedup(unsigned k, const McResult& single,
                                const McResult& multi) {
  MW_REQUIRE(multi.ci.mean > 0.0, "k-walk cover estimate must be positive");
  MW_REQUIRE(single.ci.mean > 0.0, "1-walk cover estimate must be positive");
  SpeedupEstimate est;
  est.k = k;
  est.single = single;
  est.multi = multi;
  est.speedup = single.ci.mean / multi.ci.mean;
  const double rel1 = single.ci.half_width / single.ci.mean;
  const double relk = multi.ci.half_width / multi.ci.mean;
  est.half_width = est.speedup * std::sqrt(rel1 * rel1 + relk * relk);
  // Censored inputs mean both means are lower bounds, so their ratio is
  // biased in an unknown direction; carry the count so every renderer
  // flags the estimate instead of presenting it as clean.
  est.censored = single.censored + multi.censored;
  return est;
}

void BlockedRunTotals::absorb(const BlockWalkEngine& engine) {
  const ExtentCache::Stats& cache = engine.cache_stats();
  const BlockWalkEngine::Stats& run = engine.stats();
  ++trials;
  cache_loads += cache.loads;
  cache_hits += cache.hits;
  cache_evictions += cache.evictions;
  cache_bytes_loaded += cache.bytes_loaded;
  horizons += run.horizons;
  bucket_passes += run.bucket_passes;
  peak_trial_bytes_loaded =
      std::max(peak_trial_bytes_loaded, cache.bytes_loaded);
}

Vertex OutOfCore::num_vertices() const { return engine.num_vertices(); }

ThreadPool* OutOfCore::plan(std::size_t /*lanes*/, ThreadPool* /*pool*/,
                            McOptions& mc, CoverOptions& cover) const {
  // kLanes with no pool is run_monte_carlo's serial index-ordered loop:
  // the same per-trial streams and reduction order as every other mode.
  mc.parallelism = McParallelism::kLanes;
  cover.lane_shards = 0;
  cover.shard_pool = nullptr;
  return nullptr;
}

CoverSample OutOfCore::walk(std::span<const Vertex> starts, Vertex target,
                            Rng& rng, const CoverOptions& cover) const {
  engine.reset(starts);
  // Counters restart per trial so run summaries report per-trial
  // aggregates; walking never reads them, so the v4 schedule is untouched.
  engine.reset_stats();
  const CoverSample sample = engine.run_until_visited(target, rng, cover);
  if (totals != nullptr) totals->absorb(engine);
  return sample;
}

McResult estimate_cover_to_target_blocked(BlockWalkEngine& engine,
                                          Vertex start, unsigned k,
                                          Vertex target, const McOptions& mc,
                                          const CoverOptions& cover,
                                          BlockedRunTotals* totals) {
  return estimate_cover(OutOfCore{engine, totals}, k,
                        same_vertex_starts(start), target, mc, cover);
}

}  // namespace manywalks
