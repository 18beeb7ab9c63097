#include "storage/mapped_graph.hpp"

#include <sys/mman.h>

#include <cstring>

#include "util/check.hpp"

namespace manywalks {

MappedGraph::MappedGraph(const std::string& path, Validate validate)
    : path_(path) {
  {
    const MwgFile file = open_mwg(path);
    file_ = MwgMapping(file.fd.get(), 0, file.bytes, "'" + path + "'");
  }  // the mapping keeps its own reference to the file
  std::memcpy(&header_, file_.at(0), sizeof(MwgHeader));
  // Validate before touching anything the header points at; on a throw
  // the mapping member unmaps itself.
  check_mwg_header(path, header_, file_.mapped_bytes());
  const std::uint64_t n = header_.num_vertices;
  block_bits_ = mwg_block_bits(header_);
  offsets_ = reinterpret_cast<const std::uint64_t*>(
      file_.at(mwg_offsets_begin()));
  targets_ = reinterpret_cast<const Vertex*>(file_.at(mwg_targets_begin(n)));
  if (block_bits_ > 0) {
    const std::uint64_t index_begin =
        mwg_block_index_begin(n, header_.num_arcs);
    block_arc_begin_ =
        reinterpret_cast<const std::uint64_t*>(file_.at(index_begin));
    block_max_degree_ = reinterpret_cast<const Vertex*>(
        file_.at(index_begin + (num_blocks() + 1) * sizeof(std::uint64_t)));
  }
  // Structure scan: offsets and block index only — never faults the
  // targets region.
  check_mwg_structure(path, header_, offsets_, block_arc_begin_,
                      block_max_degree_);

  const std::uint64_t targets_byte_begin = mwg_targets_begin(n);
  const std::uint64_t targets_byte_end =
      targets_byte_begin + header_.num_arcs * sizeof(Vertex);
  if (validate != Validate::kStructure) {
    // The scan walks the adjacency region front to back; let the kernel
    // read ahead aggressively for this one pass. Advice is scoped to the
    // targets extent — a mapping-wide flip would also reshape the
    // offsets/index pages other subsystems (the block scheduler above
    // all) rely on streaming sequentially.
    file_.advise(targets_byte_begin, targets_byte_end, POSIX_MADV_SEQUENTIAL);
    const bool deep = validate == Validate::kDeep;
    std::uint64_t loops = 0;
    for (std::uint64_t v = 0; v < n; ++v) {
      for (std::uint64_t a = offsets_[v]; a < offsets_[v + 1]; ++a) {
        const Vertex u = targets_[a];
        MW_REQUIRE(u < n, "'" << path << "': target " << u
                              << " out of range in row " << v);
        if (!deep) continue;
        MW_REQUIRE(a == offsets_[v] || targets_[a - 1] <= u,
                   "'" << path << "': row " << v << " not sorted");
        if (u == v) ++loops;
      }
    }
    MW_REQUIRE(!deep || loops == header_.num_loops,
               "'" << path << "': header claims " << header_.num_loops
                   << " loops, adjacency has " << loops);
  }

  // The walk hot path touches arcs in random order; tell the kernel not
  // to waste read-ahead on sequential speculation. Scoped to the targets
  // extent: the offsets (and v2 block index) are scanned linearly and
  // keep default readahead.
  file_.advise(targets_byte_begin, targets_byte_end, POSIX_MADV_RANDOM);
}

Graph to_graph(const MappedGraph& mapped, bool validate) {
  const auto offsets = mapped.offsets();
  const auto targets = mapped.targets();
  return Graph::from_csr(
      std::vector<std::uint64_t>(offsets.begin(), offsets.end()),
      ArcVector(targets.begin(), targets.end()), validate);
}

}  // namespace manywalks
