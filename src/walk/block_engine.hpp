// Out-of-core, block-scheduled k-walk engine (determinism contract v4).
//
// BlockWalkEngine drives the same per-lane walks as WalkEngineT's lane
// path (engine.hpp), but against a BlockedGraph whose adjacency lives on
// disk: walkers are bucketed by the vertex block containing their
// current position (walker_buckets.hpp), each bucket pass visits the
// touched blocks in id order, alternating ascending and descending from
// pass to pass (so a pass starts on the blocks the previous one left
// resident), each block's targets extent is read through an LRU
// ExtentCache (one sequential pread per load), and every resident
// walker advances until it exits the block or its round budget for the
// current horizon ends. With B blocks and k walkers, one horizon costs
// O(min(horizon, B)·B) block loads instead of O(horizon·k) random 4 KB
// faults — the drunkardmob trade.
//
// Determinism contract v4: the schedule — horizon boundaries, bucket
// rebuilds, block order (alternating direction per bucket pass, restarted
// by reset()), in-block lane order — is a pure function of
// (graph, k, seed, laziness, step_cap). The memory budget shapes ONLY
// which extents stay cached, never what is executed when, so runs are
// bit-identical at every budget; and because each lane's trajectory is a
// pure function of its own RNG stream (contract v2) and visited-set
// updates commute, the results are bit-identical to the IN-CORE lane
// engine for the same seed:
//
//   * run_for_steps: final tokens, RNG states, and visited set equal the
//     in-core lane run's after the same rounds;
//   * run_until_visited: additionally returns the same (steps, covered).
//     Cover needs round-granular coverage checks, which an asynchronous
//     schedule cannot do directly — so the engine runs horizons of
//     kBlockHorizon rounds against a snapshot, and when coverage lands
//     inside a horizon it restores the snapshot and replays that horizon
//     in lockstep (one round per bucket sweep) to find the exact
//     covering round. Exactness: the asynchronous end state equals the
//     lockstep end state, and coverage is monotone in rounds.
//
// The engine is serial by design (the workload is I/O-bound, not
// CPU-bound).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "storage/block_store.hpp"
#include "util/rng.hpp"
#include "walk/cover_types.hpp"
#include "walk/visit_tracker.hpp"
#include "walk/walker_buckets.hpp"

namespace manywalks {

/// Rounds per asynchronous horizon between coverage checks. Part of the
/// v4 schedule contract: changing it changes nothing observable (results
/// are bit-identical to the in-core engine either way), only the
/// batching ratio.
inline constexpr std::uint32_t kBlockHorizon = 64;

class BlockWalkEngine {
 public:
  struct Stats {
    std::uint64_t horizons = 0;        ///< asynchronous horizons executed
    std::uint64_t bucket_passes = 0;   ///< bucket rebuild sweeps
    std::uint64_t block_visits = 0;    ///< per-pass block activations
    std::uint64_t replayed_rounds = 0; ///< lockstep rounds for exact cover
    std::uint64_t bucket_migrations = 0;  ///< walkers that exited a block
                                          ///< mid-budget and were rebucketed
  };

  /// Binds to a v2 graph with an explicit resident-extent budget.
  /// Requires min_degree >= 1 (walkable), like every substrate binding.
  BlockWalkEngine(const BlockedGraph& graph, std::uint64_t mem_budget_bytes);

  /// Same contract as WalkEngineT::reset: k = starts.size() walkers, all
  /// start vertices marked visited, lane streams reseeded on next run.
  void reset(std::span<const Vertex> starts);

  /// Same contract (and same results, bit for bit) as the in-core lane
  /// engine's run_until_visited. lane_shards/shard_pool are ignored
  /// (serial engine).
  CoverSample run_until_visited(Vertex target, Rng& rng,
                                const CoverOptions& options = {});

  /// Same contract (and same end state, bit for bit) as the in-core lane
  /// engine's run_for_steps. Chunked calls are equivalent
  /// to one combined call.
  void run_for_steps(std::uint64_t rounds, Rng& rng, double laziness = 0.0);

  const BlockedGraph& graph() const noexcept { return *graph_; }
  std::uint64_t mem_budget() const noexcept { return cache_.budget_bytes(); }
  Vertex num_vertices() const noexcept { return graph_->num_vertices(); }
  Vertex num_visited() const noexcept { return tracker_.num_visited(); }
  bool visited(Vertex v) const { return tracker_.visited(v); }
  std::span<const Vertex> tokens() const noexcept { return tokens_; }
  const Stats& stats() const noexcept { return stats_; }
  const ExtentCache::Stats& cache_stats() const noexcept {
    return cache_.stats();
  }

  /// Zeroes the engine's schedule counters and the cache's traffic
  /// counters so per-trial attribution is possible (an OutOfCore estimate
  /// shares one engine across trials). Pure bookkeeping: no cached extent
  /// is dropped, no schedule state changes.
  void reset_stats() noexcept {
    stats_ = Stats{};
    cache_.reset_stats();
  }

 private:
  void ensure_lanes(Rng& rng);
  /// One bucketed sweep epoch: every live walker advances `rounds_each`
  /// rounds (exiting walkers are rebucketed and resumed until done).
  void run_rounds_bucketed(std::uint32_t rounds_each, double laziness);
  void process_block(std::uint32_t block, double laziness);
  std::uint64_t replay_cover_rounds(Vertex target, std::uint32_t horizon,
                                    double laziness);
  /// Observability flush for one run_* call (serial calling thread):
  /// schedule-counter deltas since `before` plus the logical round count.
  void note_run_observed(const Stats& before, std::uint64_t rounds) const;

  const BlockedGraph* graph_;
  ExtentCache cache_;
  WordVisitTracker tracker_;
  std::vector<Vertex> tokens_;
  LaneRngs lane_rngs_;
  bool lanes_seeded_ = false;
  bool descending_ = false;  // next bucket pass sweeps blocks high to low
  WalkerBuckets buckets_;
  std::vector<std::uint32_t> rounds_left_;
  Stats stats_;
  // Horizon snapshot for the exact-cover replay.
  std::vector<Vertex> snap_tokens_;
  std::vector<Rng> snap_rngs_;
  WordVisitTracker snap_tracker_;
};

}  // namespace manywalks
