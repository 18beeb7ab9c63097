#include "graph/graph.hpp"

#include <algorithm>
#include <cstdint>
#include <new>
#include <sstream>

#include "util/check.hpp"

namespace manywalks {

namespace detail {

// Over-allocates one line from plain ::operator new rather than calling
// the aligned overload: glibc serves aligned requests with memalign, whose
// split-off fragments kept the heap growing across rebuilds. ::operator
// new returns at least 16-byte aligned memory, so the aligned start lies
// 16..64 bytes into the block, with room to keep the block's own address
// just below it.
void* allocate_line_aligned(std::size_t bytes) {
  constexpr std::uintptr_t kLine = 64;
  void* const block = ::operator new(bytes + kLine);
  const std::uintptr_t start =
      (reinterpret_cast<std::uintptr_t>(block) + kLine) & ~(kLine - 1);
  reinterpret_cast<void**>(start)[-1] = block;
  return reinterpret_cast<void*>(start);
}

void free_line_aligned(void* p) noexcept {
  ::operator delete(static_cast<void**>(p)[-1]);
}

}  // namespace detail

bool Graph::has_edge(Vertex u, Vertex v) const {
  MW_REQUIRE(u < num_vertices() && v < num_vertices(),
             "has_edge: vertex out of range");
  const auto row = neighbors(u);
  return std::binary_search(row.begin(), row.end(), v);
}

Vertex Graph::edge_multiplicity(Vertex u, Vertex v) const {
  MW_REQUIRE(u < num_vertices() && v < num_vertices(),
             "edge_multiplicity: vertex out of range");
  const auto row = neighbors(u);
  const auto [lo, hi] = std::equal_range(row.begin(), row.end(), v);
  const auto arcs = static_cast<Vertex>(hi - lo);
  return arcs;  // for loops, one arc == one loop edge by our convention
}

Vertex Graph::min_degree() const {
  MW_REQUIRE(num_vertices() > 0, "min_degree of empty graph");
  return min_degree_;
}

Vertex Graph::max_degree() const {
  MW_REQUIRE(num_vertices() > 0, "max_degree of empty graph");
  return max_degree_;
}

bool Graph::is_regular() const {
  return num_vertices() == 0 || min_degree_ == max_degree_;
}

bool Graph::is_simple() const {
  if (num_loops_ != 0) return false;
  for (Vertex v = 0; v < num_vertices(); ++v) {
    const auto row = neighbors(v);
    for (std::size_t i = 1; i < row.size(); ++i) {
      if (row[i] == row[i - 1]) return false;
    }
  }
  return true;
}

namespace {

/// A vertex w whose arc multiplicities with u differ. Called only once u's
/// in-degree is known to differ from its out-degree, so such a w exists; an
/// error path, so a plain O(n log deg) search is fine.
Vertex asymmetric_partner(const Graph& g, Vertex u) {
  Vertex w = 0;
  while (g.edge_multiplicity(u, w) == g.edge_multiplicity(w, u)) ++w;
  return w;
}

/// Symmetry: the arc multiset equals its transpose. `cursor` holds every
/// vertex's in-degree. Equal in- and out-degrees bound each transposed row
/// to its CSR row, so the scatter stays in range; walking the sources in
/// order leaves each transposed row sorted, and one streaming compare with
/// `targets` then checks multiplicity(u->v) == multiplicity(v->u) for all
/// pairs at once.
void check_symmetric(const Graph& g, std::vector<std::uint64_t> cursor) {
  const Vertex n = g.num_vertices();
  const auto offsets = g.offsets();
  const auto targets = g.targets();
  for (Vertex u = 0; u < n; ++u) {
    MW_REQUIRE(cursor[u] == offsets[u + 1] - offsets[u],
               "arc multiset not symmetric between "
                   << u << " and " << asymmetric_partner(g, u));
    cursor[u] = offsets[u];
  }
  std::vector<Vertex> transposed(targets.size());
  for (Vertex v = 0; v < n; ++v) {
    for (std::uint64_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      transposed[cursor[targets[i]]++] = v;
    }
  }
  const auto [arc, back] =
      std::mismatch(targets.begin(), targets.end(), transposed.begin());
  if (arc == targets.end()) return;
  // Both rows of the first mismatch are sorted and agree before it, so the
  // smaller of the two differing entries occurs more often in one of them.
  const auto position = static_cast<std::uint64_t>(arc - targets.begin());
  const auto u = std::upper_bound(offsets.begin(), offsets.end(), position) -
                 offsets.begin() - 1;
  MW_REQUIRE(false, "arc multiset not symmetric between "
                        << u << " and " << std::min(*arc, *back));
}

}  // namespace

Graph Graph::from_csr(std::vector<std::uint64_t> offsets, ArcVector targets,
                      bool validate) {
  MW_REQUIRE(!offsets.empty(), "offsets must have at least one entry");
  MW_REQUIRE(offsets.front() == 0, "offsets must start at 0");
  MW_REQUIRE(offsets.back() == targets.size(),
             "offsets must end at targets.size()");
  Graph g;
  g.offsets_ = std::move(offsets);
  g.targets_ = std::move(targets);
  const Vertex n = g.num_vertices();
  std::uint64_t loops = 0;
  Vertex min_deg = n > 0 ? kInvalidVertex : 0;
  Vertex max_deg = 0;
  std::vector<std::uint64_t> in_degree(validate ? n : 0, 0);
  for (Vertex v = 0; v < n; ++v) {
    MW_REQUIRE(g.offsets_[v] <= g.offsets_[v + 1], "offsets not monotone");
    const auto row = g.neighbors(v);
    min_deg = std::min(min_deg, static_cast<Vertex>(row.size()));
    max_deg = std::max(max_deg, static_cast<Vertex>(row.size()));
    for (std::size_t i = 0; i < row.size(); ++i) {
      MW_REQUIRE(row[i] < n, "target out of range");
      if (validate) {
        if (i > 0) {
          MW_REQUIRE(row[i - 1] <= row[i], "row " << v << " not sorted");
        }
        ++in_degree[row[i]];
      }
      if (row[i] == v) ++loops;
    }
  }
  g.num_loops_ = loops;
  g.min_degree_ = min_deg;
  g.max_degree_ = max_deg;
  if (validate) check_symmetric(g, std::move(in_degree));
  return g;
}

GraphBuilder::GraphBuilder(Vertex num_vertices) : num_vertices_(num_vertices) {
  MW_REQUIRE(num_vertices != kInvalidVertex, "vertex count too large");
}

GraphBuilder& GraphBuilder::add_edge(Vertex u, Vertex v) {
  MW_REQUIRE(u < num_vertices_ && v < num_vertices_,
             "add_edge(" << u << "," << v << ") out of range (n=" << num_vertices_
                         << ")");
  arcs_.emplace_back(u, v);
  if (u != v) arcs_.emplace_back(v, u);
  return *this;
}

Graph GraphBuilder::build(const BuildOptions& options) {
  const Vertex n = num_vertices_;

  // CSR by counting sort on the source, then a sort of each row by target:
  // the rows come out in (source, target) order, so duplicate handling is
  // a linear scan per row, and no global sort of the arc list is needed.
  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1, 0);
  for (const auto& arc : arcs_) {
    ++offsets[static_cast<std::size_t>(arc.first) + 1];
  }
  for (Vertex v = 0; v < n; ++v) {
    offsets[static_cast<std::size_t>(v) + 1] += offsets[v];
  }
  ArcVector targets(arcs_.size());
  // Scatter with offsets[u] as row u's cursor; afterwards offsets[u] holds
  // row u's end, so shifting the array by one restores the row starts.
  for (const auto& [u, v] : arcs_) targets[offsets[u]++] = v;
  std::copy_backward(offsets.begin(), offsets.end() - 1, offsets.end());
  offsets[0] = 0;
  arcs_.clear();
  arcs_.shrink_to_fit();

  std::uint64_t kept = 0;
  for (Vertex u = 0; u < n; ++u) {
    const std::uint64_t begin = offsets[u];
    const std::uint64_t end = offsets[static_cast<std::size_t>(u) + 1];
    std::sort(targets.begin() + static_cast<std::ptrdiff_t>(begin),
              targets.begin() + static_cast<std::ptrdiff_t>(end));
    offsets[u] = kept;
    for (std::uint64_t i = begin; i < end; ++i) {
      const Vertex v = targets[i];
      if (u == v) {
        MW_REQUIRE(options.loops == LoopPolicy::kKeep,
                   "self loop at vertex " << u << " rejected by policy");
      }
      // Compaction only writes at or before i, so targets[i - 1] still
      // holds row u's previous (sorted) target.
      if (i > begin && v == targets[i - 1]) {
        if (options.duplicates == DuplicatePolicy::kDedupe) continue;
        MW_REQUIRE(options.duplicates != DuplicatePolicy::kReject,
                   "parallel edge (" << u << "," << v
                                     << ") rejected by policy");
      }
      targets[kept++] = v;
    }
  }
  offsets[n] = kept;
  targets.resize(kept);

  // add_edge keeps the arcs symmetric; from_csr still validates them.
  return Graph::from_csr(std::move(offsets), std::move(targets),
                         /*validate=*/true);
}

std::string describe(const Graph& g) {
  std::ostringstream os;
  os << "Graph(n=" << g.num_vertices() << ", m=" << g.num_edges();
  if (g.num_vertices() > 0) {
    os << ", deg∈[" << g.min_degree() << "," << g.max_degree() << "]";
    if (g.num_loops() > 0) os << ", loops=" << g.num_loops();
  }
  os << ")";
  return os.str();
}

}  // namespace manywalks
