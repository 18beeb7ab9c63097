// Batched k-walk engine: the hot path behind every cover- and hitting-time
// sampler.
//
// WalkEngineT binds a Substrate (graph/substrate.hpp) once — the CSR arrays
// for an explicit Graph, or a closed-form adjacency for the implicit
// families — and then advances ALL k tokens per round with a
// register-resident substrate copy, a loop-hoisted laziness branch, and a
// word-level visited scratch that stays cache-resident on large graphs. On
// an implicit substrate the n/8-byte scratch is the ONLY O(n) allocation,
// which is what lets the giant-graph experiments run at n = 10^7–10^8 with
// no CSR ever built.
//
// Sampling (determinism contract v2, docs/ARCHITECTURE.md "RNG scheme"):
// each token owns an independent lane stream derived from a single 64-bit
// lane master, drawn once from the caller's stream at the first run after
// reset(); lane i uses make_lane_rng(master, i). Independent lanes break
// the cross-token dependency chain, so the round loop is software-
// pipelined: tokens are processed in blocks of kLaneBlock, and while one
// stage computes, prefetches for the next stage's CSR offset rows,
// neighbor words, and visit-tracker words are already in flight. The
// neighbor draw is lane_neighbor_index(rng, degree) — a pure function of
// (lane stream, degree), mask for power-of-two degrees, full-word Lemire
// otherwise — so CSR and implicit engines of the same CSR-ordered family
// stay bit-identical. Results are bit-reproducible across --threads values
// and schedulers.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "graph/substrate.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/progress.hpp"
#include "util/check.hpp"
#include "util/prefetch.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "walk/cover_types.hpp"
#include "walk/visit_tracker.hpp"

namespace manywalks {

namespace detail {

/// Lanes per pipeline block. 16 independent loads in flight comfortably
/// saturates the miss queues of current cores while the stage scratch
/// (two 16-entry arrays) stays in registers/L1.
inline constexpr std::size_t kLaneBlock = 16;

/// Stage-1 marker for a lane that drew "stay put" (lazy walks only); no
/// real arc index can be ~0 (num_arcs < 2^64).
inline constexpr std::uint64_t kStayArc = ~std::uint64_t{0};

/// Marks one landing in the visit scratch (and the optional counters).
template <bool kCounts>
inline void commit_visit(Vertex v, std::uint64_t* words, Vertex& visited,
                         [[maybe_unused]] std::uint64_t* counts) {
  std::uint64_t& word = words[v >> 6];
  const std::uint64_t bit = std::uint64_t{1} << (v & 63);
  if ((word & bit) == 0) {
    word |= bit;
    ++visited;
  }
  if constexpr (kCounts) ++counts[v];
}

/// One pipelined lane round over an arc-addressable (CSR) substrate.
/// Three stages per block, each issuing the next stage's prefetches while
/// the current one computes:
///   1. offset-row loads + per-lane draws, prefetch the neighbor words;
///   2. neighbor loads, prefetch the visit-tracker words (and the NEXT
///      block's offset rows, overlapping its stage 1);
///   3. commit tokens/bits/counters, warm the landing vertex's offset row
///      for the next round.
template <bool kLazy, bool kCounts, class S>
inline void lane_round_csr(const S& substrate, Vertex* toks, Rng* rngs,
                           std::size_t k, [[maybe_unused]] double laziness,
                           std::uint64_t* words, Vertex& visited,
                           [[maybe_unused]] std::uint64_t* counts) {
  std::uint64_t arcs[kLaneBlock];
  Vertex nexts[kLaneBlock];
  const std::size_t first = std::min(k, kLaneBlock);
  for (std::size_t j = 0; j < first; ++j) {
    substrate.prefetch_degree_row(toks[j]);
  }
  for (std::size_t base = 0; base < k; base += kLaneBlock) {
    const std::size_t nb = std::min(kLaneBlock, k - base);
    for (std::size_t j = 0; j < nb; ++j) {  // stage 1
      const std::size_t i = base + j;
      const Vertex v = toks[i];
      if constexpr (kLazy) {
        if (rngs[i].uniform01() < laziness) {
          arcs[j] = kStayArc;
          nexts[j] = v;
          continue;
        }
      }
      const auto degree = static_cast<std::uint32_t>(substrate.degree(v));
      const std::uint64_t arc = substrate.arc_index(
          v, static_cast<Vertex>(lane_neighbor_index(rngs[i], degree)));
      arcs[j] = arc;
      substrate.prefetch_arc(arc);
    }
    const std::size_t next_base = base + kLaneBlock;
    if (next_base < k) {  // overlap the next block's stage-1 row loads
      const std::size_t nn = std::min(kLaneBlock, k - next_base);
      for (std::size_t j = 0; j < nn; ++j) {
        substrate.prefetch_degree_row(toks[next_base + j]);
      }
    }
    for (std::size_t j = 0; j < nb; ++j) {  // stage 2
      if constexpr (kLazy) {
        if (arcs[j] == kStayArc) {
          mw_prefetch(&words[nexts[j] >> 6]);
          continue;
        }
      }
      const Vertex v = substrate.arc_target(arcs[j]);
      nexts[j] = v;
      mw_prefetch(&words[v >> 6]);
    }
    for (std::size_t j = 0; j < nb; ++j) {  // stage 3
      const Vertex v = nexts[j];
      toks[base + j] = v;
      commit_visit<kCounts>(v, words, visited, counts);
      substrate.prefetch_degree_row(v);
    }
  }
}

// Draw policies for the direct (non-arc-addressable) lane round. All three
// consume exactly the draws of lane_neighbor_index(rng, degree) — the
// hoisted variants just resolve its power-of-two branch outside the loop.

/// degree is a power of two: one raw word, masked.
struct LaneMaskDraw {
  std::uint64_t mask;
  template <class S>
  Vertex operator()(Rng& rng, const S&, Vertex) const noexcept {
    return static_cast<Vertex>(rng.next() & mask);
  }
};

/// Uniform degree, not a power of two: hoisted full-word Lemire.
struct LaneWideDraw {
  std::uint32_t degree;
  template <class S>
  Vertex operator()(Rng& rng, const S&, Vertex) const noexcept {
    return static_cast<Vertex>(rng.uniform_below_wide(degree));
  }
};

/// Arbitrary substrate: per-vertex degree through lane_neighbor_index.
struct LanePerVertexDraw {
  template <class S>
  Vertex operator()(Rng& rng, const S& substrate, Vertex v) const noexcept {
    return static_cast<Vertex>(lane_neighbor_index(
        rng, static_cast<std::uint32_t>(substrate.degree(v))));
  }
};

/// One lane round over a closed-form substrate: the adjacency costs
/// no loads, so no staging is worth its overhead — a fused loop of k
/// independent (rng, position) chains already lets the core overlap the
/// tracker-word accesses, the only memory the implicit families touch.
template <bool kLazy, bool kCounts, class S, class Draw>
inline void lane_round_direct(const S& substrate, Draw draw, Vertex* toks,
                              Rng* rngs, std::size_t k,
                              [[maybe_unused]] double laziness,
                              std::uint64_t* words, Vertex& visited,
                              [[maybe_unused]] std::uint64_t* counts) {
  for (std::size_t i = 0; i < k; ++i) {
    Vertex v = toks[i];
    if constexpr (kLazy) {
      if (rngs[i].uniform01() < laziness) {
        commit_visit<kCounts>(v, words, visited, counts);
        continue;
      }
    }
    v = substrate.neighbor(v, draw(rngs[i], substrate, v));
    toks[i] = v;
    commit_visit<kCounts>(v, words, visited, counts);
  }
}

/// All `rounds` lane steps of every lane, lane-major: with no
/// per-round coverage check to honor, each lane's whole strip runs with
/// its RNG state and position in registers (the round-major schedule pays
/// a per-step state load/store tax that dominates ALU-bound substrates).
/// Tracker-bit sets and visit-counter increments commute and lanes never
/// read each other's state in a fixed-rounds run, so the final
/// tokens/visited-set/counts are identical to the round-major schedule.
/// Arc-addressable substrates keep the round-major kernels: their
/// throughput comes from overlapping k independent memory chains, which
/// lane-major would serialize.
template <bool kLazy, bool kCounts, class S, class Draw>
inline void lane_steps_lane_major(const S& substrate, Draw draw,
                                  std::uint64_t rounds, Vertex* toks,
                                  Rng* rngs, std::size_t k,
                                  [[maybe_unused]] double laziness,
                                  std::uint64_t* words, Vertex& visited,
                                  [[maybe_unused]] std::uint64_t* counts) {
  const auto advance = [&](Rng& rng, Vertex v) {
    if constexpr (kLazy) {
      if (rng.uniform01() < laziness) {
        commit_visit<kCounts>(v, words, visited, counts);
        return v;
      }
    }
    v = substrate.neighbor(v, draw(rng, substrate, v));
    commit_visit<kCounts>(v, words, visited, counts);
    return v;
  };
  // Four lanes per strip: their states stay register/L1-local across all
  // rounds, and interleaving four independent chains keeps long-latency
  // neighbor math (e.g. the torus division) pipelined — the cross-lane ILP
  // a one-lane strip would forfeit.
  std::size_t i = 0;
  for (; i + 4 <= k; i += 4) {
    Rng r0 = rngs[i], r1 = rngs[i + 1], r2 = rngs[i + 2], r3 = rngs[i + 3];
    Vertex v0 = toks[i], v1 = toks[i + 1], v2 = toks[i + 2],
           v3 = toks[i + 3];
    for (std::uint64_t t = 0; t < rounds; ++t) {
      v0 = advance(r0, v0);
      v1 = advance(r1, v1);
      v2 = advance(r2, v2);
      v3 = advance(r3, v3);
    }
    rngs[i] = r0;
    rngs[i + 1] = r1;
    rngs[i + 2] = r2;
    rngs[i + 3] = r3;
    toks[i] = v0;
    toks[i + 1] = v1;
    toks[i + 2] = v2;
    toks[i + 3] = v3;
  }
  for (; i < k; ++i) {  // tail lanes, one strip each
    Rng rng = rngs[i];
    Vertex v = toks[i];
    for (std::uint64_t t = 0; t < rounds; ++t) v = advance(rng, v);
    toks[i] = v;
    rngs[i] = rng;
  }
}

/// One lane round over a REGULAR arc-addressable substrate
/// (regular_stride() != 0): arc = stride*v + draw needs no offset-row
/// load, so each lane's per-step dependency chain is exactly one memory
/// access — the neighbor word — and the loop prefetches the landing
/// vertex's adjacency row the moment it is known, a full round before the
/// next draw reads it.
template <bool kLazy, bool kCounts, class S, class Draw>
inline void lane_round_csr_regular(const S& substrate, Draw draw,
                                   std::uint64_t stride, Vertex* toks,
                                   Rng* rngs, std::size_t k,
                                   [[maybe_unused]] double laziness,
                                   std::uint64_t* words, Vertex& visited,
                                   [[maybe_unused]] std::uint64_t* counts) {
  for (std::size_t i = 0; i < k; ++i) {
    Vertex v = toks[i];
    if constexpr (kLazy) {
      if (rngs[i].uniform01() < laziness) {
        commit_visit<kCounts>(v, words, visited, counts);
        continue;
      }
    }
    const std::uint64_t arc =
        stride * v + draw(rngs[i], substrate, v);
    v = substrate.arc_target(arc);
    toks[i] = v;
    substrate.prefetch_arc(stride * v);  // next round's row, one round early
    commit_visit<kCounts>(v, words, visited, counts);
  }
}

}  // namespace detail

template <class S>
class WalkEngineT {
  static_assert(Substrate<S>,
                "WalkEngineT requires a Substrate (a Graph binds through "
                "WalkEngine, the CsrSubstrate instantiation)");

 public:
  /// Binds the substrate by value. For CsrSubstrate the underlying Graph's
  /// CSR arrays must outlive the engine; implicit substrates carry no
  /// external state. Walkability is the substrate's own invariant (every
  /// substrate guarantees min degree >= 1 by construction; CsrSubstrate
  /// validates it once at binding).
  explicit WalkEngineT(const S& substrate)
      : substrate_(substrate),
        num_vertices_(substrate.num_vertices()),
        tracker_(substrate.num_vertices()) {
    MW_REQUIRE(num_vertices_ >= 1, "walk on empty substrate");
  }

  /// Binds g's live CSR arrays (pointers, not a copy): g must outlive the
  /// engine.
  explicit WalkEngineT(const Graph& g)
    requires std::same_as<S, CsrSubstrate>
      : WalkEngineT(CsrSubstrate(g)) {}

  /// Re-seeds the tokens (each validated against the vertex range) and
  /// resets the visited scratch; the starts count as visited at t = 0.
  /// With a non-empty `targets`, every vertex outside the target set starts
  /// visited, so the visited count first grows when a token stands on a
  /// target (the hitting-time runs of cover.hpp). Cheap enough to call once
  /// per Monte-Carlo trial. Also discards the lane streams: the next run
  /// derives fresh lanes from its caller's stream.
  void reset(std::span<const Vertex> starts,
             std::span<const Vertex> targets = {}) {
    MW_REQUIRE(!starts.empty(), "k-walk needs at least one token");
    if (targets.empty()) {
      tracker_.reset();
    } else {
      for (const Vertex t : targets) {
        MW_REQUIRE(t < num_vertices_, "target vertex out of range");
      }
      tracker_.reset_all_visited_except(targets);
    }
    tokens_.assign(starts.begin(), starts.end());
    for (Vertex s : tokens_) {
      MW_REQUIRE(s < num_vertices_, "start vertex out of range");
      tracker_.visit(s);
    }
    lanes_seeded_ = false;
  }

  /// Advances all tokens round by round until `target` distinct vertices
  /// have been visited or `options.step_cap` rounds have run. A round
  /// always finishes even if coverage is reached mid-round, matching the
  /// round-granular timing convention in cover.hpp.
  CoverSample run_until_visited(Vertex target, Rng& rng,
                                const CoverOptions& options = {}) {
    MW_REQUIRE(!tokens_.empty(), "no tokens; call reset() before running");
    MW_REQUIRE(target <= num_vertices_,
               "target " << target << " exceeds num_vertices "
                         << num_vertices_);
    MW_REQUIRE(options.laziness >= 0.0 && options.laziness < 1.0,
               "laziness must be in [0,1)");
    CoverSample sample;
    if (tracker_.num_visited() >= target) {
      sample.covered = true;
      return sample;
    }
    if (options.step_cap == 0) return sample;  // no rounds, no draws
    ensure_lanes(rng);
    if (options.lane_shards > 0) {
      // Determinism contract v3: the sharded driver is bit-identical to
      // the serial lane path for every team size.
      sample = options.laziness > 0.0
                   ? run_until_visited_sharded<true>(target, options)
                   : run_until_visited_sharded<false>(target, options);
    } else {
      sample = options.laziness > 0.0
                   ? run_until_visited_lane<true>(target, options)
                   : run_until_visited_lane<false>(target, options);
    }
    note_rounds_observed(sample.steps);
    return sample;
  }

  /// Advances all tokens for exactly `rounds` rounds, marking visits. When
  /// `visit_counts` is non-null it must point at num_vertices() counters;
  /// each token increments its landing vertex's counter every step.
  /// Chunked calls are equivalent to one combined call (the lanes are
  /// seeded once, at the first non-empty run after reset(), consuming
  /// exactly one draw of `rng`).
  void run_for_steps(std::uint64_t rounds, Rng& rng, double laziness = 0.0,
                     std::uint64_t* visit_counts = nullptr) {
    MW_REQUIRE(!tokens_.empty(), "no tokens; call reset() before running");
    MW_REQUIRE(laziness >= 0.0 && laziness < 1.0, "laziness must be in [0,1)");
    if (rounds == 0) return;
    ensure_lanes(rng);
    if (laziness > 0.0) {
      visit_counts != nullptr
          ? run_for_steps_lane<true, true>(rounds, laziness, visit_counts)
          : run_for_steps_lane<true, false>(rounds, laziness, visit_counts);
    } else {
      visit_counts != nullptr
          ? run_for_steps_lane<false, true>(rounds, laziness, visit_counts)
          : run_for_steps_lane<false, false>(rounds, laziness, visit_counts);
    }
    note_rounds_observed(rounds);
  }

  const S& substrate() const noexcept { return substrate_; }
  std::size_t num_tokens() const { return tokens_.size(); }
  std::span<const Vertex> tokens() const { return tokens_; }
  Vertex num_vertices() const { return num_vertices_; }
  Vertex num_visited() const { return tracker_.num_visited(); }
  bool visited(Vertex v) const { return tracker_.visited(v); }

 private:
  /// Derives the per-token lane streams on the first run after a
  /// reset(): one 64-bit lane master off the caller's stream, then
  /// make_lane_rng(master, i) per lane. Subsequent (chunked) runs continue
  /// the same lanes and never touch `rng` again.
  void ensure_lanes(Rng& rng) {
    if (!lanes_seeded_) {
      lane_rngs_.reseed(rng.next(), tokens_.size());
      lanes_seeded_ = true;
    }
  }

  /// Observability flush, once per run_* call (never inside a round loop):
  /// one pointer test when observability is off. Writes the calling
  /// thread's scratch, never the registry — trials may run on pool workers
  /// (kTrials Monte-Carlo), and the scratch keeps that race-free.
  void note_rounds_observed(std::uint64_t rounds) const {
    obs::RunObserver* const o = obs::observer();
    if (o == nullptr || o->metrics == nullptr) return;
    obs::WorkerCounters& scratch = obs::thread_counters();
    scratch.add(obs::Metric::kRounds, rounds);
    scratch.add(obs::Metric::kSteps, rounds * tokens_.size());
  }

  /// Hands `body` the hoisted draw policy for a known uniform degree —
  /// mask for powers of two, full-word Lemire otherwise. The single place
  /// the hoisted dispatch is spelled: both the uniform-degree substrates
  /// and the regular-CSR stride path resolve through here, so the
  /// draw-stream invariant (every policy consumes exactly the draws of
  /// lane_neighbor_index(rng, degree)) cannot diverge between them.
  template <class Body>
  static auto with_hoisted_draw(std::uint32_t degree, Body&& body) {
    if (std::has_single_bit(degree)) {
      return body(detail::LaneMaskDraw{std::uint64_t{degree} - 1});
    }
    return body(detail::LaneWideDraw{degree});
  }

  /// Resolves the lane draw policy for this substrate — the hoisted mask
  /// or full-word Lemire draw for uniform-degree families (constexpr for
  /// advertised pow2_degree, one runtime has_single_bit otherwise), or the
  /// per-vertex lane_neighbor_index fallback — and hands it to `body`. All
  /// policies consume exactly the draws of lane_neighbor_index(rng,
  /// degree), so the choice never changes the stream.
  template <class Body>
  static auto with_lane_draw(const S& substrate, Body&& body) {
    if constexpr (Pow2DegreeSubstrate<S>) {
      return body(detail::LaneMaskDraw{std::uint64_t{substrate.degree(0)} - 1});
    } else if constexpr (UniformDegreeSubstrate<S>) {
      return with_hoisted_draw(static_cast<std::uint32_t>(substrate.degree(0)),
                               std::forward<Body>(body));
    } else {
      return body(detail::LanePerVertexDraw{});
    }
  }

  /// Resolves the lane round kernel for this substrate — stride-addressed
  /// or staged-pipeline CSR round, fused direct round otherwise — and
  /// hands it to `body` as a nullary callable.
  template <bool kLazy, bool kCounts, class Body>
  auto with_lane_round(const S& substrate, Vertex* toks, Rng* rngs,
                       std::size_t k, double laziness, std::uint64_t* words,
                       Vertex& visited, std::uint64_t* counts, Body&& body) {
    if constexpr (ArcAddressableSubstrate<S>) {
      const auto stride =
          static_cast<std::uint64_t>(substrate.regular_stride());
      if (stride != 0) {
        // Regular graph: stride addressing + the shared hoisted draw
        // dispatch, so the stream is identical to what the general
        // (per-vertex lane_neighbor_index) path would consume.
        return with_hoisted_draw(
            static_cast<std::uint32_t>(stride), [&](auto draw) {
              return body([&, draw] {
                detail::lane_round_csr_regular<kLazy, kCounts>(
                    substrate, draw, stride, toks, rngs, k, laziness, words,
                    visited, counts);
              });
            });
      }
      return body([&] {
        detail::lane_round_csr<kLazy, kCounts>(substrate, toks, rngs, k,
                                               laziness, words, visited,
                                               counts);
      });
    } else {
      return with_lane_draw(substrate, [&](auto draw) {
        return body([&, draw] {
          detail::lane_round_direct<kLazy, kCounts>(substrate, draw, toks,
                                                    rngs, k, laziness, words,
                                                    visited, counts);
        });
      });
    }
  }

  // --- sharded round driver (determinism contract v3) -----------------------
  //
  // The team is min(lane_shards, k, pool size + 1) executors: the caller
  // plus team-1 pool workers. Worker w walks the contiguous lanes
  // [w·k/team, (w+1)·k/team) with the serial lane kernels into its own
  // ShardedVisitTracker bitmap. Each round the barrier publishes the
  // per-worker counts and every worker replicates the cover decision from
  // shared state, so all of them take the same branch without a
  // coordinator. A failing worker poisons the barrier so the rest of the
  // team exits instead of deadlocking, and its exception is rethrown on
  // the caller.

  ShardedVisitTracker& ensure_sharded_scratch(unsigned team) {
    if (sharded_scratch_ == nullptr || sharded_scratch_->num_shards() != team) {
      sharded_scratch_ =
          std::make_unique<ShardedVisitTracker>(num_vertices_, team);
    }
    return *sharded_scratch_;
  }

  template <bool kLazy>
  CoverSample run_until_visited_sharded(Vertex target,
                                        const CoverOptions& options) {
    const S substrate = substrate_;
    Vertex* const toks = tokens_.data();
    Rng* const rngs = lane_rngs_.data();
    const std::size_t k = tokens_.size();
    const double laziness = options.laziness;

    ThreadPool* const pool = options.shard_pool;
    const auto team = static_cast<unsigned>(std::min<std::uint64_t>(
        {options.lane_shards, k, pool != nullptr ? pool->size() + 1 : 1}));
    ShardedVisitTracker& trk = ensure_sharded_scratch(team);
    trk.reset();
    trk.seed_merged(tracker_.words(), tracker_.num_visited());
    const std::size_t wps = trk.words_per_shard();

    SpinBarrier barrier(team);
    std::vector<Vertex> partials(team, 0);
    std::vector<std::exception_ptr> errors(team);
    struct WorkerResult {
      std::uint64_t steps = 0;
      std::uint64_t visited = 0;
      std::uint64_t merges = 0;
      std::uint64_t merge_stalls = 0;
      bool covered = false;
    };
    std::vector<WorkerResult> results(team);

    const auto worker = [&](std::uint64_t w) {
      try {
        const auto slot = static_cast<unsigned>(w);
        const std::size_t lane_begin = w * k / team;
        const std::size_t lane_end = (w + 1) * k / team;
        const std::size_t word_begin = w * wps / team;
        const std::size_t word_end = (w + 1) * wps / team;

        // Replicated control: every branch below depends only on shared
        // state that is final at the preceding barrier, so all workers
        // agree without a coordinator.
        std::uint64_t t = 0;
        std::uint64_t exact = trk.merged_count();
        std::uint64_t merges = 0;
        std::uint64_t merge_stalls = 0;
        bool covered = false;
        while (t < options.step_cap) {
          ++t;
          // Worker 0 IS the calling thread (parallel_for_static runs
          // chunk 0 on the caller), so the heartbeat and the
          // queue-depth sample stay single-threaded. Printing is the only
          // effect — the walk and merge schedule below never reads the
          // clock.
          if (w == 0 && (t & 255u) == 0) {
            if (obs::RunObserver* const o = obs::observer(); o != nullptr) {
              if (o->metrics != nullptr && pool != nullptr) {
                obs::thread_counters().note_max(obs::Metric::kPoolQueuePeak,
                                                pool->queue_depth());
              }
              if (o->progress != nullptr) o->progress->tick();
            }
          }
          const auto parity = static_cast<unsigned>(t & 1);
          Vertex slot_visited = trk.shard_visited(slot);
          with_lane_round<kLazy, false>(
              substrate, toks + lane_begin, rngs + lane_begin,
              lane_end - lane_begin, laziness, trk.shard_words(slot),
              slot_visited, nullptr, [](auto&& round) { round(); });
          trk.set_shard_visited(slot, slot_visited);
          // Freeze this round's count BEFORE the barrier: the decision
          // below must read parity-t data only, never live counters a
          // fast worker is already bumping in round t+1.
          trk.publish_shard(parity, slot);
          if (!barrier.arrive_and_wait()) return;
          // The bound never undercounts the union, so a below-target bound
          // proves the exact merge can be skipped this round; the final
          // round always merges so the post-state is exact. Its inputs are
          // the frozen parity-t deltas plus this worker's OWN replica of
          // the exact count — no live shared state, so every worker takes
          // the same branch (anything less desyncs the barrier pairing:
          // the merge path arrives twice per round, the skip path once).
          const bool final_round = t >= options.step_cap;
          if (trk.upper_bound_visited(parity, exact) < target && !final_round) {
            // The skip decision is replicated, so every worker's stall
            // count is the same; the coordinator flushes worker 0's.
            ++merge_stalls;
            continue;
          }
          ++merges;
          partials[w] = trk.merge_range(word_begin, word_end);
          trk.snapshot_shard(slot);
          if (!barrier.arrive_and_wait()) return;
          std::uint64_t total = 0;
          for (const Vertex partial : partials) total += partial;
          exact = total;
          // Tracker bookkeeping only (post-run state): during the run no
          // peer reads merged_count_ — the replicated decision uses each
          // worker's local `exact` replica of this same reduction.
          if (w == 0) trk.set_merged_count(static_cast<Vertex>(total));
          if (total >= target) {
            covered = true;
            break;
          }
        }
        results[w] = {t, exact, merges, merge_stalls, covered};
      } catch (...) {
        errors[w] = std::current_exception();
        barrier.poison();
      }
    };
    if (team == 1) {
      worker(0);
    } else {
      parallel_for_static(*pool, team, worker);
    }
    for (const std::exception_ptr& error : errors) {
      if (error) std::rethrow_exception(error);
    }

    // Observability flush on the calling thread after the team joined; the
    // merge/stall decisions are replicated so worker 0's counts are exact.
    if (obs::RunObserver* const o = obs::observer();
        o != nullptr && o->metrics != nullptr) {
      obs::WorkerCounters& scratch = obs::thread_counters();
      scratch.add(obs::Metric::kMerges, results[0].merges);
      scratch.add(obs::Metric::kMergeStalls, results[0].merge_stalls);
    }

    // Post-state identical to the serial path: the merged bitmap is the
    // run's visited set (the final round always merged).
    std::copy(trk.merged_words(), trk.merged_words() + wps, tracker_.words());
    tracker_.set_num_visited(static_cast<Vertex>(results[0].visited));
    CoverSample sample;
    sample.covered = results[0].covered;
    sample.steps = results[0].covered ? results[0].steps : options.step_cap;
    return sample;
  }

  // Flattened so the round kernel is inlined into the round loop in every
  // instantiation: the explicit ones in engine.cpp otherwise call it once
  // per round, which dominates small-k trials.
  template <bool kLazy>
  [[gnu::flatten]] CoverSample run_until_visited_lane(
      Vertex target, const CoverOptions& options) {
    const S substrate = substrate_;  // register-resident copy for the loop
    Vertex* const toks = tokens_.data();
    std::uint64_t* const words = tracker_.words();
    const std::size_t k = tokens_.size();
    Rng* const rngs = lane_rngs_.data();
    const double laziness = options.laziness;
    Vertex visited = tracker_.num_visited();

    return with_lane_round<kLazy, false>(
        substrate, toks, rngs, k, laziness, words, visited, nullptr,
        [&](auto&& round) {
          CoverSample sample;
          std::uint64_t t = 0;
          while (t < options.step_cap) {
            ++t;
            round();
            if (visited >= target) {
              tracker_.set_num_visited(visited);
              sample.steps = t;
              sample.covered = true;
              return sample;
            }
          }
          tracker_.set_num_visited(visited);
          sample.steps = options.step_cap;
          sample.covered = false;
          return sample;
        });
  }

  template <bool kLazy, bool kCounts>
  void run_for_steps_lane(std::uint64_t rounds, double laziness,
                          std::uint64_t* visit_counts) {
    const S substrate = substrate_;
    Vertex* const toks = tokens_.data();
    std::uint64_t* const words = tracker_.words();
    const std::size_t k = tokens_.size();
    Rng* const rngs = lane_rngs_.data();
    Vertex visited = tracker_.num_visited();

    if constexpr (ArcAddressableSubstrate<S>) {
      with_lane_round<kLazy, kCounts>(
          substrate, toks, rngs, k, laziness, words, visited, visit_counts,
          [&](auto&& round) {
            for (std::uint64_t t = 0; t < rounds; ++t) round();
          });
    } else {
      // No per-round check to honor: run each lane's whole strip with its
      // state in registers (see lane_steps_lane_major).
      with_lane_draw(substrate, [&](auto draw) {
        detail::lane_steps_lane_major<kLazy, kCounts>(
            substrate, draw, rounds, toks, rngs, k, laziness, words, visited,
            visit_counts);
      });
    }
    tracker_.set_num_visited(visited);
  }

  S substrate_;
  Vertex num_vertices_;
  std::vector<Vertex> tokens_;
  WordVisitTracker tracker_;
  LaneRngs lane_rngs_;
  bool lanes_seeded_ = false;
  // Sharded-run scratch, cached across trials (a Monte-Carlo estimate
  // reruns the same (n, team) thousands of times; reset() is an
  // O(team·n/64) fill, reallocation is not).
  std::unique_ptr<ShardedVisitTracker> sharded_scratch_;
};

// The instantiations every caller uses live in engine.cpp; a custom
// substrate type instantiates from this header as usual.
extern template class WalkEngineT<CsrSubstrate>;
extern template class WalkEngineT<CycleSubstrate>;
extern template class WalkEngineT<TorusSubstrate>;
extern template class WalkEngineT<HypercubeSubstrate>;
extern template class WalkEngineT<CompleteSubstrate>;

/// The engine over an explicit Graph's CSR arrays.
using WalkEngine = WalkEngineT<CsrSubstrate>;

}  // namespace manywalks
