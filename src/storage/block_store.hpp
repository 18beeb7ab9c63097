// Out-of-core access to mwg v2 files: metadata-resident graph handle,
// RAII file extents, and an LRU extent cache with an explicit byte
// budget.
//
// MappedGraph (mapped_graph.hpp) maps the WHOLE file and trusts the page
// cache; once the CSR outgrows memory the walk hot path degenerates to
// random 4 KB faults. BlockedGraph instead maps only the metadata — the
// header + offsets array up front and the v2 block index at the tail —
// and hands out adjacency as explicit extents:
//
//   * `map_extent(byte_begin, byte_end)` maps one file extent (RAII,
//     page-aligned internally) and prefetches it as a sequential read;
//   * `ExtentCache` keeps an LRU of mapped extents bounded by an
//     explicit byte budget (`--mem-budget`), so the resident set is a
//     scheduling decision, not a page-cache accident. At least one
//     extent stays resident even when it alone exceeds the budget.
//
// The budget shapes ONLY eviction — never which extents are requested in
// what order — which is what keeps the block engine's schedule (and so
// its streams) budget-invariant (determinism contract v4, see
// docs/ARCHITECTURE.md "Out-of-core scheduling").
//
// All mmap/madvise calls in the tree live in src/storage/ — consumers
// (the block engine, benches) go through this API, enforced by the
// manywalks-lint rule `manywalks-mmap-outside-storage`.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <set>
#include <span>
#include <string>

#include "graph/graph.hpp"
#include "storage/mapped_graph.hpp"
#include "storage/mwg.hpp"

namespace manywalks {

/// One read-only mapping of a file byte extent. Move-only RAII; `data()`
/// points at `byte_begin` (the mapping itself is page-aligned
/// internally). Produced by BlockedGraph::map_extent.
class MappedExtent {
 public:
  MappedExtent() = default;
  ~MappedExtent();

  MappedExtent(MappedExtent&& other) noexcept;
  MappedExtent& operator=(MappedExtent&& other) noexcept;
  MappedExtent(const MappedExtent&) = delete;
  MappedExtent& operator=(const MappedExtent&) = delete;

  bool empty() const noexcept { return base_ == nullptr; }
  /// First byte of the requested extent (file offset `byte_begin`).
  const std::byte* data() const noexcept {
    return reinterpret_cast<const std::byte*>(
               static_cast<const char*>(base_)) +
           lead_;
  }
  /// Bytes actually mapped (requested extent plus page-alignment lead).
  std::uint64_t mapped_bytes() const noexcept { return mapped_bytes_; }

 private:
  friend class BlockedGraph;
  MappedExtent(int fd, std::uint64_t byte_begin, std::uint64_t byte_end,
               const std::string& path);

  void* base_ = nullptr;
  std::uint64_t mapped_bytes_ = 0;
  std::uint64_t lead_ = 0;  // byte_begin - page-aligned mapping start
};

/// Metadata-resident handle on an mwg v2 file. Maps the header + offsets
/// array and the block index; the adjacency region is NEVER mapped as a
/// whole — callers pull it in through map_extent / ExtentCache. Rejects
/// v1 files (no block index to schedule by) with an upgrade hint.
class BlockedGraph {
 public:
  explicit BlockedGraph(const std::string& path);
  ~BlockedGraph();

  BlockedGraph(BlockedGraph&& other) noexcept;
  BlockedGraph& operator=(BlockedGraph&& other) noexcept;
  BlockedGraph(const BlockedGraph&) = delete;
  BlockedGraph& operator=(const BlockedGraph&) = delete;

  Vertex num_vertices() const noexcept {
    return static_cast<Vertex>(header_.num_vertices);
  }
  std::uint64_t num_arcs() const noexcept { return header_.num_arcs; }
  std::uint64_t num_loops() const noexcept { return header_.num_loops; }
  Vertex min_degree() const noexcept { return header_.min_degree; }
  Vertex max_degree() const noexcept { return header_.max_degree; }
  Vertex degree(Vertex v) const noexcept {
    return static_cast<Vertex>(offsets_[v + 1] - offsets_[v]);
  }
  /// The resident offsets array (n+1 entries) — valid while this
  /// BlockedGraph is alive.
  std::span<const std::uint64_t> offsets() const noexcept {
    return {offsets_, static_cast<std::size_t>(header_.num_vertices) + 1};
  }

  // --- block geometry -------------------------------------------------
  std::uint32_t block_bits() const noexcept { return block_bits_; }
  std::uint64_t num_blocks() const noexcept {
    return mwg_num_blocks(header_.num_vertices, block_bits_);
  }
  std::uint64_t block_of(Vertex v) const noexcept { return v >> block_bits_; }
  Vertex block_first_vertex(std::uint64_t b) const noexcept {
    return static_cast<Vertex>(b << block_bits_);
  }
  std::uint64_t block_arc_begin(std::uint64_t b) const noexcept {
    return block_arc_begin_[b];
  }
  Vertex block_max_degree(std::uint64_t b) const noexcept {
    return block_max_degree_[b];
  }

  // --- file extents ---------------------------------------------------
  std::uint64_t targets_byte_begin() const noexcept {
    return mwg_targets_begin(header_.num_vertices);
  }
  /// Byte extent of arc `a`'s target word.
  std::uint64_t arc_byte(std::uint64_t a) const noexcept {
    return targets_byte_begin() + a * sizeof(Vertex);
  }
  /// Byte extent holding block b's slice of the targets array.
  std::uint64_t block_byte_begin(std::uint64_t b) const noexcept {
    return arc_byte(block_arc_begin_[b]);
  }
  std::uint64_t block_byte_end(std::uint64_t b) const noexcept {
    return arc_byte(block_arc_begin_[b + 1]);
  }
  std::uint64_t file_bytes() const noexcept { return file_bytes_; }
  const std::string& path() const noexcept { return path_; }

  /// Maps the file extent [byte_begin, byte_end) read-only and prefetches
  /// it as one sequential read. Throws MwgIoError on mmap failure (e.g.
  /// an address-space limit) — the caller-visible symptom of a budget the
  /// machine cannot honor.
  MappedExtent map_extent(std::uint64_t byte_begin,
                          std::uint64_t byte_end) const;

 private:
  void close_all() noexcept;

  std::string path_;
  int fd_ = -1;
  std::uint64_t file_bytes_ = 0;
  MwgHeader header_{};
  std::uint32_t block_bits_ = 0;
  // Two metadata mappings: [0, targets_begin) and the tail block index.
  void* meta_base_ = nullptr;
  std::uint64_t meta_bytes_ = 0;
  void* index_base_ = nullptr;
  std::uint64_t index_bytes_ = 0;
  const std::uint64_t* offsets_ = nullptr;
  const std::uint64_t* block_arc_begin_ = nullptr;
  const Vertex* block_max_degree_ = nullptr;
};

/// LRU cache of mapped extents bounded by an explicit byte budget. The
/// budget counts requested extent bytes; eviction drops the
/// least-recently-acquired extent until the cache fits, always keeping
/// the most recent one resident (a single extent larger than the budget
/// still loads — it just evicts everything else).
///
/// Pointers returned by acquire() are valid until a LATER acquire()
/// evicts that extent; the block engine's contract is to finish with a
/// block's pointer before acquiring the next block.
///
/// The first load of an extent in a cache's lifetime range-checks the
/// target words it holds (< n), so a corrupt store fails with
/// std::invalid_argument instead of sending a walker off the tracker. The
/// check is one sequential pass over bytes the load just read.
class ExtentCache {
 public:
  struct Stats {
    std::uint64_t loads = 0;       ///< extents mapped (cache misses)
    std::uint64_t hits = 0;        ///< acquires served resident
    std::uint64_t evictions = 0;   ///< extents dropped for budget
    std::uint64_t bytes_loaded = 0;
    std::uint64_t resident_bytes = 0;
    std::uint64_t peak_resident_bytes = 0;
  };

  ExtentCache(const BlockedGraph& graph, std::uint64_t budget_bytes);

  /// The extent's first byte, mapping it on miss (and evicting LRU
  /// extents past the budget). A given byte_begin must always be paired
  /// with the same byte_end.
  const std::byte* acquire(std::uint64_t byte_begin, std::uint64_t byte_end);

  std::uint64_t budget_bytes() const noexcept { return budget_; }
  const Stats& stats() const noexcept { return stats_; }

  /// Zeroes the traffic counters (loads/hits/evictions/bytes_loaded) so
  /// callers can attribute cache behavior to one phase or trial. Residency
  /// is real state, not a counter: resident_bytes is kept and the peak
  /// restarts from it.
  void reset_stats() noexcept {
    const std::uint64_t resident = stats_.resident_bytes;
    stats_ = Stats{};
    stats_.resident_bytes = resident;
    stats_.peak_resident_bytes = resident;
  }

 private:
  struct Entry {
    std::uint64_t begin;
    std::uint64_t end;
    MappedExtent extent;
  };

  void check_targets(std::uint64_t byte_begin, std::uint64_t byte_end,
                     const std::byte* data) const;

  const BlockedGraph* graph_;
  std::uint64_t budget_;
  std::list<Entry> lru_;  // front = most recently acquired
  std::map<std::uint64_t, std::list<Entry>::iterator> by_begin_;
  std::set<std::uint64_t> checked_;  // byte_begin of every checked extent
  Stats stats_;
};

}  // namespace manywalks
