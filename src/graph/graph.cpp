#include "graph/graph.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"

namespace manywalks {

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

Graph Graph::from_csr(std::vector<std::uint64_t> offsets,
                      std::vector<Vertex> targets, bool validate) {
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
  for (Vertex v = 0; v < n; ++v) {
    MW_REQUIRE(g.offsets_[v] <= g.offsets_[v + 1], "offsets not monotone");
    const auto row = g.neighbors(v);
    min_deg = std::min(min_deg, static_cast<Vertex>(row.size()));
    max_deg = std::max(max_deg, static_cast<Vertex>(row.size()));
    for (std::size_t i = 0; i < row.size(); ++i) {
      MW_REQUIRE(row[i] < n, "target out of range");
      if (validate && i > 0) {
        MW_REQUIRE(row[i - 1] <= row[i], "row " << v << " not sorted");
      }
      if (row[i] == v) ++loops;
    }
  }
  g.num_loops_ = loops;
  g.min_degree_ = min_deg;
  g.max_degree_ = max_deg;
  if (validate) {
    // Symmetry: multiplicity(u->v) == multiplicity(v->u) for all pairs.
    for (Vertex v = 0; v < n; ++v) {
      const auto row = g.neighbors(v);
      std::size_t i = 0;
      while (i < row.size()) {
        std::size_t j = i;
        while (j < row.size() && row[j] == row[i]) ++j;
        const Vertex u = row[i];
        if (u != v) {
          const auto other = g.neighbors(u);
          const auto [lo, hi] = std::equal_range(other.begin(), other.end(), v);
          MW_REQUIRE(static_cast<std::size_t>(hi - lo) == j - i,
                     "arc multiset not symmetric between " << v << " and " << u);
        }
        i = j;
      }
    }
  }
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

GraphBuilder& GraphBuilder::add_arc(Vertex u, Vertex v) {
  MW_REQUIRE(u < num_vertices_ && v < num_vertices_,
             "add_arc(" << u << "," << v << ") out of range");
  arcs_.emplace_back(u, v);
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
  std::vector<Vertex> targets(arcs_.size());
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

  // from_csr validates symmetry, which catches asymmetric add_arc usage.
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
