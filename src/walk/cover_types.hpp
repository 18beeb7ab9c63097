// The option/sample types shared by the cover samplers (walk/cover.hpp)
// and the walk engine (walk/engine.hpp). Split out so cover.hpp can build
// substrate samplers on top of the engine template without an include
// cycle.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>

namespace manywalks {

class ThreadPool;  // util/thread_pool.hpp

/// The lane-shard count the thread-budget planner (apply_thread_budget in
/// mc/estimators.hpp) writes for a k-lane trial it puts in lanes mode: one
/// worker per 256 lanes, at most 32. The per-worker rounds stay long
/// enough to amortize the round barrier, and 32 caps the merge width and
/// the team·n/8-byte tracker scratch.
constexpr unsigned auto_lane_shards(std::size_t lanes) noexcept {
  return std::clamp<unsigned>(static_cast<unsigned>(lanes / 256), 1u, 32u);
}

struct CoverOptions {
  /// Probability of a token staying put each step (0 = simple walk).
  double laziness = 0.0;
  /// Safety cap on rounds; a sample that reaches the cap reports
  /// covered=false with steps=step_cap.
  std::uint64_t step_cap = std::numeric_limits<std::uint64_t>::max();
  /// Lane-sharding plan (determinism contract v3). 0 = the serial lane
  /// path; >= 1 = the sharded round driver with a team of at most this
  /// many workers (1 still routes through the driver — the golden-test
  /// configuration). The RESULT is identical in every case; only the
  /// schedule changes.
  unsigned lane_shards = 0;
  /// Worker pool for the sharded round driver: the team is
  /// min(lane_shards, k, shard_pool->size()+1) executors (the calling
  /// thread participates). Null = a team of one, the caller. Not owned.
  ThreadPool* shard_pool = nullptr;
};

/// The default CoverOptions, spelled as a call for call sites that state
/// their options explicitly (CLI experiments, benches).
constexpr CoverOptions lane_cover_options() noexcept { return {}; }

struct CoverSample {
  std::uint64_t steps = 0;  ///< rounds until coverage (or the cap)
  bool covered = false;     ///< false iff the cap was hit first
};

}  // namespace manywalks
