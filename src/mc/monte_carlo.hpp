// Deterministic parallel Monte-Carlo driver.
//
// Reproducibility contract: trial i under master seed s always uses
// make_trial_rng(s, i), and results are reduced in trial-index order, so
// estimates are bit-identical regardless of thread count or scheduling.
#pragma once

#include <cstdint>
#include <functional>

#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace manywalks {

/// Where one estimate spends its thread budget. Neither choice changes any
/// estimated number: trials always reduce in index order under per-trial
/// streams, and lane sharding is result-invariant (determinism contract
/// v3) — the mode only decides where the parallel speed-up comes from.
enum class McParallelism : std::uint8_t {
  /// Independent trials fan out across the pool (the default); the walk
  /// engine inside each trial stays serial.
  kTrials,
  /// Trials run one at a time on the calling thread and the pool is handed
  /// DOWN to the sharded walk engine, which splits each trial's k lanes
  /// across the team. Picked only when the caller pins a shard count
  /// (--lane-shards), e.g. to spread one or two giant cover runs.
  kLanes,
};

/// "trials" / "lanes" — the sink-metadata spelling of the policy decision.
const char* parallelism_name(McParallelism parallelism) noexcept;

struct McOptions {
  std::uint64_t min_trials = 16;
  std::uint64_t max_trials = 512;
  /// Adaptive stop: finish once the CI half-width is below this fraction of
  /// the mean (checked batch-wise after min_trials).
  double target_rel_half_width = 0.05;
  double confidence = 0.95;
  std::uint64_t seed = 0x5eedULL;
  /// Worker threads; 0 = hardware concurrency. Only used when no external
  /// pool is supplied.
  unsigned threads = 0;
  /// Thread-budget mode (normally set by the estimators via
  /// apply_thread_budget, not by hand). Under kLanes the trial loop runs
  /// sequentially on the caller — same trial streams, same index-ordered
  /// reduction, bit-identical estimate — and the pool flows to the engine
  /// through CoverOptions::shard_pool instead.
  McParallelism parallelism = McParallelism::kTrials;
};

struct McResult {
  ConfidenceInterval ci;
  RunningStats stats;
  /// CI target reached before max_trials. NEVER true when any trial was
  /// censored: a step-cap-truncated value makes the mean a lower bound, so
  /// a tight CI around it certifies nothing.
  bool target_met = false;
  /// Trials reporting a truncated value; when nonzero, ci.mean is a lower
  /// bound and downstream consumers (combine_speedup, the CLI sinks) flag
  /// the estimate instead of treating it as unbiased.
  std::uint64_t censored = 0;
  double seconds = 0.0;          ///< wall clock spent
};

/// One trial's report: `value` enters the estimate either way; `censored`
/// marks values truncated by a step cap (the mean is then a lower bound).
struct TrialOutcome {
  double value = 0.0;
  bool censored = false;
};

using TrialFn = std::function<TrialOutcome(std::uint64_t index, Rng& rng)>;

/// Runs trials in parallel batches until the CI target or max_trials.
/// If `pool` is null a private pool with `options.threads` workers is used.
McResult run_monte_carlo(const TrialFn& trial, const McOptions& options,
                         ThreadPool* pool = nullptr);

}  // namespace manywalks
