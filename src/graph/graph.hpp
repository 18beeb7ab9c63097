// Immutable undirected graph in compressed sparse row (CSR) form.
//
// Conventions (chosen to match random-walk semantics in the paper):
//   * The graph stores "arcs": directed adjacency entries forming a
//     symmetric multiset. A non-loop undirected edge contributes two arcs
//     (u->v and v->u); a self-loop edge contributes ONE arc (v->v).
//   * degree(v) is the number of arcs out of v, i.e. the number of equally
//     likely moves of a simple random walk at v. A self loop therefore adds
//     one to the degree and gives the walk probability 1/deg(v) of staying.
//   * Parallel edges are allowed (each contributes its own arcs) so exact
//     d-regular multigraph constructions such as the Margulis–Gabber–Galil
//     expander keep degree exactly d everywhere.
//   * The stationary distribution of the simple random walk is
//     pi(v) = degree(v) / num_arcs().
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace manywalks {

using Vertex = std::uint32_t;

/// Sentinel for "no vertex" (unreachable targets, unset parents, ...).
inline constexpr Vertex kInvalidVertex = static_cast<Vertex>(-1);

namespace detail {
void* allocate_line_aligned(std::size_t bytes);
void free_line_aligned(void* p) noexcept;
}  // namespace detail

/// Allocates on a 64-byte cache-line boundary. The regular-graph walk
/// kernel prefetches only the first line of a landing vertex's row; on an
/// aligned targets array a row whose byte size divides 64 (degree 8: 32
/// bytes) never straddles two lines, whatever the heap's history.
template <class T>
struct CacheLineAllocator {
  using value_type = T;

  CacheLineAllocator() = default;
  template <class U>
  constexpr CacheLineAllocator(
      const CacheLineAllocator<U>& /*other*/) noexcept {}

  T* allocate(std::size_t count) {
    return static_cast<T*>(detail::allocate_line_aligned(count * sizeof(T)));
  }
  void deallocate(T* p, std::size_t /*count*/) noexcept {
    detail::free_line_aligned(p);
  }
  bool operator==(const CacheLineAllocator&) const noexcept = default;
};

/// A CSR targets array: the arcs of row 0, then row 1, ...
using ArcVector = std::vector<Vertex, CacheLineAllocator<Vertex>>;

class Graph {
 public:
  /// Empty graph (0 vertices).
  Graph() = default;

  Vertex num_vertices() const noexcept {
    return offsets_.empty() ? 0 : static_cast<Vertex>(offsets_.size() - 1);
  }

  /// Total adjacency entries (2·#non-loop-edges + #loop-edges).
  std::uint64_t num_arcs() const noexcept { return targets_.size(); }

  /// Number of undirected edges, counting each self loop as one edge and
  /// each parallel edge separately.
  std::uint64_t num_edges() const noexcept {
    return (num_arcs() - num_loops_) / 2 + num_loops_;
  }

  /// Number of self-loop edges.
  std::uint64_t num_loops() const noexcept { return num_loops_; }

  Vertex degree(Vertex v) const {
    return static_cast<Vertex>(offsets_[v + 1] - offsets_[v]);
  }

  /// Neighbors of v (sorted ascending; parallel edges appear repeatedly).
  std::span<const Vertex> neighbors(Vertex v) const {
    return {targets_.data() + offsets_[v],
            targets_.data() + offsets_[v + 1]};
  }

  /// i-th neighbor of v, 0 <= i < degree(v). The random-walk hot path.
  Vertex neighbor(Vertex v, Vertex i) const { return targets_[offsets_[v] + i]; }

  /// True if at least one (u,v) edge exists (binary search, O(log deg)).
  bool has_edge(Vertex u, Vertex v) const;

  /// Multiplicity of edge (u,v): number of parallel (u,v) edges; for u==v,
  /// the number of self-loop edges at u.
  Vertex edge_multiplicity(Vertex u, Vertex v) const;

  /// Extremal degrees, precomputed at construction (O(1) to query, so
  /// per-trial walkability checks are free).
  Vertex min_degree() const;
  Vertex max_degree() const;
  /// True when every vertex has the same degree.
  bool is_regular() const;
  /// True when the graph has no self loops and no parallel edges.
  bool is_simple() const;

  /// Raw CSR access for performance-critical code and serialization.
  std::span<const std::uint64_t> offsets() const noexcept { return offsets_; }
  std::span<const Vertex> targets() const noexcept { return targets_; }

  /// Constructs directly from CSR arrays. `validate` checks structural
  /// invariants (sorted rows, symmetric arc multiset) in O(n + arcs): one
  /// in-degree count, then one pass that scatters the transpose into a
  /// targets-sized scratch and compares it with `targets`.
  static Graph from_csr(std::vector<std::uint64_t> offsets, ArcVector targets,
                        bool validate = true);

 private:
  friend class GraphBuilder;

  std::vector<std::uint64_t> offsets_;  // size num_vertices()+1
  ArcVector targets_;                   // size num_arcs(), each row sorted
  std::uint64_t num_loops_ = 0;
  Vertex min_degree_ = 0;
  Vertex max_degree_ = 0;
};

/// Accumulates edges/arcs, then produces a validated CSR graph.
class GraphBuilder {
 public:
  enum class DuplicatePolicy {
    kReject,  ///< parallel edges are an error (default)
    kDedupe,  ///< collapse parallel edges into one
    kKeep,    ///< keep parallel edges (multigraph)
  };
  enum class LoopPolicy {
    kReject,  ///< self loops are an error (default)
    kKeep,    ///< keep self loops
  };

  struct BuildOptions {
    DuplicatePolicy duplicates = DuplicatePolicy::kReject;
    LoopPolicy loops = LoopPolicy::kReject;
  };

  explicit GraphBuilder(Vertex num_vertices);

  /// Adds an undirected edge. u == v adds a self loop (one arc).
  GraphBuilder& add_edge(Vertex u, Vertex v);

  Vertex num_vertices() const noexcept { return num_vertices_; }
  std::uint64_t num_arcs_added() const noexcept { return arcs_.size(); }

  /// Builds the CSR graph; consumes the accumulated edges.
  /// (Two overloads rather than a defaulted argument: GCC rejects `= {}`
  /// for a nested aggregate with member initializers inside the enclosing
  /// class body.)
  Graph build() { return build(BuildOptions{}); }
  Graph build(const BuildOptions& options);

 private:
  Vertex num_vertices_;
  std::vector<std::pair<Vertex, Vertex>> arcs_;
};

/// Human-readable one-line description, e.g. "Graph(n=100, m=200, d∈[2,4])".
std::string describe(const Graph& g);

}  // namespace manywalks
