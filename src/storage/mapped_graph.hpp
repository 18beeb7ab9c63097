// Memory-mapped, zero-copy loader for mwg v1/v2 files (storage/mwg.hpp).
//
// MappedGraph maps the whole file read-only and exposes the CSR arrays as
// spans pointing INTO the mapping — nothing is copied to the heap, and the
// kernel pages adjacency in on demand, so `manywalks graph info` on a
// 10^6-vertex file never faults the targets region at all.
//
// Lifetime/alignment rules (docs/ARCHITECTURE.md "Storage"):
//   * the mapping lives exactly as long as the MappedGraph (move-only,
//     owned by an MwgMapping); every span, pointer, and substrate()
//     handed out dangles once it is destroyed — the same
//     outlives-the-engine contract as a Graph behind CsrSubstrate;
//   * the 64-byte header keeps the offsets array 8-byte aligned and the
//     targets array 4-byte aligned in any mapping (mmap bases are
//     page-aligned), so the spans are directly dereferenceable;
//   * files are native-endian; a foreign-endian file is rejected at load
//     via the header tag, never silently misread.
//
// Validation: loading always runs the shared header check and structure
// scan of storage/mwg.hpp (check_mwg_header, check_mwg_structure) — O(n)
// over pages the stats queries touch anyway. Validate::kTargets also
// checks every target is in range — one O(m) sequential pass, which a
// walk needs before it indexes its visit tracker with the targets.
// Validate::kDeep also checks that rows are sorted and the loop count,
// and is meant for foreign files (`manywalks graph info --deep`).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "graph/graph.hpp"
#include "graph/substrate.hpp"
#include "storage/mwg.hpp"

namespace manywalks {

class MappedGraph {
 public:
  enum class Validate {
    kStructure,  ///< header + offsets scan (default; never touches targets)
    kTargets,    ///< + every target in range (what walking needs)
    kDeep,       ///< + rows sorted, loop count (pages in everything)
  };

  /// Maps `path` read-only and validates. Throws std::invalid_argument on
  /// any open/map/format failure.
  explicit MappedGraph(const std::string& path,
                       Validate validate = Validate::kStructure);

  Vertex num_vertices() const noexcept {
    return static_cast<Vertex>(header_.num_vertices);
  }
  std::uint64_t num_arcs() const noexcept { return header_.num_arcs; }
  std::uint64_t num_loops() const noexcept { return header_.num_loops; }
  /// Undirected edges: each self loop one edge, parallel edges separate.
  std::uint64_t num_edges() const noexcept {
    return (header_.num_arcs - header_.num_loops) / 2 + header_.num_loops;
  }
  Vertex min_degree() const noexcept { return header_.min_degree; }
  Vertex max_degree() const noexcept { return header_.max_degree; }
  bool is_regular() const noexcept {
    return header_.min_degree == header_.max_degree;
  }
  Vertex degree(Vertex v) const noexcept {
    return static_cast<Vertex>(offsets_[v + 1] - offsets_[v]);
  }

  /// The mapped CSR arrays — views into the file mapping, valid only
  /// while this MappedGraph is alive.
  std::span<const std::uint64_t> offsets() const noexcept {
    return {offsets_, static_cast<std::size_t>(header_.num_vertices) + 1};
  }
  std::span<const Vertex> targets() const noexcept {
    return {targets_, static_cast<std::size_t>(header_.num_arcs)};
  }

  /// Binds the mapped arrays to the walk engine's CSR substrate — the
  /// exact type an in-core Graph binds through, so WalkEngineT runs
  /// zero-copy off the file with bit-identical streams.
  /// Requires min_degree >= 1 (walkable), like every substrate.
  CsrSubstrate substrate() const {
    return CsrSubstrate(offsets_, targets_, num_vertices(), min_degree(),
                        max_degree());
  }

  const std::string& path() const noexcept { return path_; }
  std::uint64_t file_bytes() const noexcept { return file_.mapped_bytes(); }
  std::uint32_t version() const noexcept { return header_.version; }

  // --- v2 block index (empty/0 on v1 files) ---------------------------
  bool has_block_index() const noexcept { return block_bits_ > 0; }
  std::uint32_t block_bits() const noexcept { return block_bits_; }
  std::uint64_t num_blocks() const noexcept {
    return block_bits_ > 0 ? mwg_num_blocks(header_.num_vertices, block_bits_)
                           : 0;
  }
  /// First arc of each block; num_blocks()+1 entries, last == num_arcs.
  std::span<const std::uint64_t> block_arc_begin() const noexcept {
    return {block_arc_begin_,
            static_cast<std::size_t>(block_bits_ > 0 ? num_blocks() + 1 : 0)};
  }
  std::span<const Vertex> block_max_degree() const noexcept {
    return {block_max_degree_, static_cast<std::size_t>(num_blocks())};
  }

 private:
  std::string path_;
  MwgMapping file_;  // the whole file
  MwgHeader header_{};
  const std::uint64_t* offsets_ = nullptr;
  const Vertex* targets_ = nullptr;
  std::uint32_t block_bits_ = 0;
  const std::uint64_t* block_arc_begin_ = nullptr;
  const Vertex* block_max_degree_ = nullptr;
};

/// Materializes a mapped graph as an in-core Graph (copies the arrays;
/// validation as in Graph::from_csr). For callers that need Graph-only
/// algorithms (BFS starts, spectra) on a stored graph.
Graph to_graph(const MappedGraph& mapped, bool validate = true);

}  // namespace manywalks
