// Visited-set tracking for the walk engine: one bit per vertex, serial
// (WordVisitTracker) and per-shard (ShardedVisitTracker).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace manywalks {

/// Word-level (one bit per vertex) visited set for the batched walk engine.
///
/// The whole scratch for a 64k-vertex graph is 8 KiB and stays L1-resident
/// while the walk's visit pattern hops randomly across vertices. reset() is
/// an O(n/64) word fill — negligible next to any cover-time trial, which
/// takes Ω(n) steps on every graph.
class WordVisitTracker {
 public:
  explicit WordVisitTracker(Vertex num_vertices)
      : words_((static_cast<std::size_t>(num_vertices) + 63) / 64, 0),
        num_vertices_(num_vertices) {}

  void reset() {
    std::fill(words_.begin(), words_.end(), 0);
    num_visited_ = 0;
  }

  /// Marks every vertex visited except `unvisited` (each < n; duplicates
  /// allowed). The bits past n in the last word stay clear, so a popcount
  /// of the words is still the visited count.
  void reset_all_visited_except(std::span<const Vertex> unvisited) {
    std::fill(words_.begin(), words_.end(), ~std::uint64_t{0});
    if (const unsigned tail = num_vertices_ & 63; tail != 0) {
      words_.back() = (std::uint64_t{1} << tail) - 1;
    }
    num_visited_ = num_vertices_;
    for (const Vertex v : unvisited) {
      std::uint64_t& word = words_[v >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (v & 63);
      if ((word & bit) == 0) continue;
      word &= ~bit;
      --num_visited_;
    }
  }

  /// Marks v visited; returns true on first visit. The already-visited
  /// case (dominant late in a cover trial) takes no store at all, so
  /// clustered tokens never serialize on read-modify-writes of a shared
  /// word.
  bool visit(Vertex v) {
    std::uint64_t& word = words_[v >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (v & 63);
    if ((word & bit) != 0) return false;
    word |= bit;
    ++num_visited_;
    return true;
  }

  bool visited(Vertex v) const {
    return ((words_[v >> 6] >> (v & 63)) & 1) != 0;
  }

  Vertex num_visited() const { return num_visited_; }
  Vertex num_vertices() const { return num_vertices_; }
  bool all_visited() const { return num_visited_ == num_vertices_; }

 private:
  // The engine's inner loop keeps the word pointer and visit counter in
  // registers (member updates through `this` would force a reload after
  // every store) and syncs num_visited_ back on exit.
  template <class S>
  friend class WalkEngineT;
  std::uint64_t* words() { return words_.data(); }
  void set_num_visited(Vertex n) { num_visited_ = n; }

  std::vector<std::uint64_t> words_;
  Vertex num_vertices_;
  Vertex num_visited_ = 0;
};

/// One word bitmap per team worker plus a merged union: the visited-set
/// scratch of the sharded round driver (determinism contract v3,
/// docs/ARCHITECTURE.md). A "shard" here is one worker's slot: the worker
/// commits its lane block's visits into its own private bitmap (reusing
/// the serial lane kernels unchanged — a slot's words pointer is
/// bit-compatible with WordVisitTracker's), so the round loop shares no
/// mutable state between workers. Cover detection works on two levels:
///
///   * upper_bound_visited(parity, merged) — the caller's merged count +
///     Σ_s (shard bits since that shard's last snapshot) — costs
///     O(#shards) reads and never undercounts the true union (every union
///     bit is set in the merged bitmap or was counted by exactly one
///     shard-new event), so checking it each round can never miss the
///     crossing round. Every input is frozen or worker-local: the deltas
///     it sums are PUBLISHED per-round copies (publish_shard), double-
///     buffered by round parity, and the merged count is the caller's own
///     replica of the reduce result. Live counters are already mutating in
///     round t+1 while slower workers still evaluate round t's bound — a
///     decision read from any live shared state can diverge between
///     workers, desynchronizing their barrier arrivals (one worker takes
///     the two-barrier merge path, another the one-barrier skip path) and
///     deadlocking or corrupting the round count from then on. Frozen
///     parity-t data keeps the replicated cover decision identical on
///     every worker (and race-free: round t+2's writes to the parity-t
///     buffer are separated from round t's reads by the t+1 barrier).
///   * merge_range()/finish snapshot — the exact count: OR every shard's
///     words into the merged bitmap (shard index order, though OR makes
///     any order bit-identical) and popcount. Run only in rounds where the
///     upper bound reaches the target; snapshotting the shard counters
///     afterwards re-tightens the bound, so merges space out geometrically
///     as coverage saturates.
///
/// The merged bitmap is also the seed channel: seed_merged() preloads the
/// engine's pre-run visited set (the starts, or earlier chunked runs), and
/// after the final merge it IS the run's visited set, copied back verbatim.
class ShardedVisitTracker {
 public:
  ShardedVisitTracker(Vertex num_vertices, unsigned num_shards)
      : words_per_shard_((static_cast<std::size_t>(num_vertices) + 63) / 64),
        num_vertices_(num_vertices),
        num_shards_(num_shards),
        shard_words_(words_per_shard_ * num_shards),
        merged_(words_per_shard_),
        visited_(num_shards),
        baseline_(num_shards),
        published_(2 * static_cast<std::size_t>(num_shards)) {}

  void reset() {
    std::fill(shard_words_.begin(), shard_words_.end(), 0);
    std::fill(merged_.begin(), merged_.end(), 0);
    for (auto& c : visited_) c.value = 0;
    for (auto& c : baseline_) c.value = 0;
    for (auto& c : published_) c.value = 0;
    merged_count_ = 0;
  }

  unsigned num_shards() const noexcept { return num_shards_; }
  Vertex num_vertices() const noexcept { return num_vertices_; }
  std::size_t words_per_shard() const noexcept { return words_per_shard_; }

  /// Shard s's private bitmap — handed to the lane round kernels as their
  /// `words` scratch. Only shard s's executor may write it between merges.
  std::uint64_t* shard_words(unsigned s) {
    return shard_words_.data() + static_cast<std::size_t>(s) * words_per_shard_;
  }
  const std::uint64_t* shard_words(unsigned s) const {
    return shard_words_.data() + static_cast<std::size_t>(s) * words_per_shard_;
  }

  /// Bits set in shard s's own bitmap (exact for the shard, NOT global).
  Vertex shard_visited(unsigned s) const { return visited_[s].value; }
  void set_shard_visited(unsigned s, Vertex count) { visited_[s].value = count; }

  /// Commits v into shard s; true iff the bit was new TO THAT SHARD.
  bool visit(unsigned s, Vertex v) {
    std::uint64_t& word = shard_words(s)[v >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (v & 63);
    if ((word & bit) != 0) return false;
    word |= bit;
    ++visited_[s].value;
    return true;
  }

  /// Preloads the merged bitmap (and its exact count) with a pre-run
  /// visited set; shard bitmaps stay empty.
  void seed_merged(const std::uint64_t* words, Vertex visited) {
    std::copy(words, words + words_per_shard_, merged_.begin());
    merged_count_ = visited;
  }

  /// Freezes shard s's count-since-last-snapshot DELTA into the round-
  /// `parity` publish buffer. The shard's executor calls this after its
  /// round work, BEFORE the round barrier; upper_bound_visited(parity)
  /// then reads only frozen data. Publishing the delta (not the absolute
  /// count) matters: baseline_[s] is re-snapshotted by the owner DURING a
  /// merge round, between the round barrier and the reduce barrier — a
  /// window in which a slower peer may still be evaluating that round's
  /// bound. Folding the baseline in at publish time (owner-only reads of
  /// owner-only state) keeps every input of the peer-visible bound frozen.
  void publish_shard(unsigned parity, unsigned s) {
    published_[static_cast<std::size_t>(parity) * num_shards_ + s].value =
        visited_[s].value - baseline_[s].value;
  }

  /// merged + Σ_s shard-new bits since each shard's last snapshot, summed
  /// from the round-`parity` PUBLISHED deltas — an upper bound on the true
  /// union size, so `upper_bound < target` proves the target was not
  /// reached and the exact merge can be skipped. `merged` is the CALLER'S
  /// replica of the exact union count (every team worker reduces the same
  /// partials, so each holds an identical copy): the member merged_count_
  /// must not feed a replicated decision because worker 0 updates it after
  /// the reduce barrier, a window a fast peer's next-round bound read can
  /// outrun. With frozen deltas and a worker-local merged count the cover
  /// decision reads no live shared state at all, which is what keeps it
  /// identical on every worker of a team.
  std::uint64_t upper_bound_visited(unsigned parity,
                                    std::uint64_t merged) const {
    std::uint64_t bound = merged;
    const std::size_t base = static_cast<std::size_t>(parity) * num_shards_;
    for (unsigned s = 0; s < num_shards_; ++s) {
      bound += published_[base + s].value;
    }
    return bound;
  }

  /// ORs every shard's words in [word_begin, word_end) into the merged
  /// bitmap and returns the popcount of that merged range. Disjoint ranges
  /// may run concurrently; the full-range sum of returns is the exact
  /// union size.
  Vertex merge_range(std::size_t word_begin, std::size_t word_end) {
    Vertex count = 0;
    for (std::size_t w = word_begin; w < word_end; ++w) {
      std::uint64_t word = merged_[w];
      for (unsigned s = 0; s < num_shards_; ++s) {
        word |= shard_words(s)[w];
      }
      merged_[w] = word;
      count += static_cast<Vertex>(std::popcount(word));
    }
    return count;
  }

  /// Re-tightens the upper bound after a merge absorbed shard s's bits.
  void snapshot_shard(unsigned s) { baseline_[s].value = visited_[s].value; }

  Vertex merged_count() const noexcept { return merged_count_; }
  void set_merged_count(Vertex count) { merged_count_ = count; }
  const std::uint64_t* merged_words() const noexcept { return merged_.data(); }

  bool merged_visited(Vertex v) const {
    return ((merged_[v >> 6] >> (v & 63)) & 1) != 0;
  }

  /// Serial full merge: exact union count, bound re-tightened (both publish
  /// buffers refreshed so upper_bound_visited is coherent for either
  /// parity). The convenience form of the range API (tests, single-threaded
  /// callers).
  Vertex merge_exact() {
    const Vertex count = merge_range(0, words_per_shard_);
    for (unsigned s = 0; s < num_shards_; ++s) {
      snapshot_shard(s);
      publish_shard(0, s);
      publish_shard(1, s);
    }
    set_merged_count(count);
    return count;
  }

 private:
  /// Shard counters are written by different executors every round; pad to
  /// a cache line so they never false-share.
  struct alignas(64) PaddedCount {
    Vertex value = 0;
  };

  std::size_t words_per_shard_;
  Vertex num_vertices_;
  unsigned num_shards_;
  std::vector<std::uint64_t> shard_words_;
  std::vector<std::uint64_t> merged_;
  std::vector<PaddedCount> visited_;
  std::vector<PaddedCount> baseline_;
  /// Two parity-indexed rows of per-shard counts (see publish_shard).
  std::vector<PaddedCount> published_;
  Vertex merged_count_ = 0;
};

}  // namespace manywalks
