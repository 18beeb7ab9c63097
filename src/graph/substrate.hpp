// Implicit graph substrates: the scale-out layer under the walk engine.
//
// A CSR `Graph` caps every experiment at the memory of an explicit edge
// list (a 10^8-vertex cycle is ~1.6 GB of CSR) long before the paper's
// asymptotics are visible. A Substrate is the minimal adjacency interface
// the walk hot path actually needs — num_vertices / degree / neighbor —
// and the families with closed-form adjacency (cycle, 2-d torus,
// hypercube, complete graph) implement it in O(1) space, so the only O(n)
// allocation left in a cover trial is the n/8-byte visit tracker.
//
// Binding contract (see docs/ARCHITECTURE.md "Substrates"):
//   * substrates are small trivially-copyable value types, stored by value
//     in WalkEngineT and compared with == for cache rebinding;
//   * `neighbor(v, i)` for 0 <= i < degree(v) enumerates the same arc
//     multiset as the equivalent CSR graph, so the simple random walk has
//     the identical law. Cycle/torus/complete additionally enumerate in
//     CSR (ascending) order, making their engines RNG-stream bit-identical
//     to the CSR instantiation; the hypercube uses bit order (a per-vertex
//     permutation of the CSR row — same walk law, different stream);
//   * every substrate is walkable by construction (min degree >= 1), so
//     engines skip the per-trial walkability re-validation a raw Graph
//     needs.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <span>
#include <type_traits>

#include "graph/graph.hpp"
#include "util/check.hpp"
#include "util/prefetch.hpp"

namespace manywalks {

/// The adjacency interface of the walk hot path. Trivial copyability lets
/// the engine's inner loop hold a register-resident copy, and keeps `Graph`
/// (which owns its arrays) out of the concept: a Graph walks through
/// CsrSubstrate (see as_substrate below).
template <class S>
concept Substrate =
    std::is_trivially_copyable_v<S> && std::equality_comparable<S> &&
    requires(const S s, Vertex v, Vertex i) {
      { s.num_vertices() } -> std::convertible_to<Vertex>;
      { s.degree(v) } -> std::convertible_to<Vertex>;
      { s.neighbor(v, i) } -> std::convertible_to<Vertex>;
    };

// --- optional lane-kernel traits ---------------------------------------------
//
// The lane-mode walk kernel (walk/engine.hpp) specializes on two optional
// substrate advertisements. Both are pure fast-path declarations: they
// never change the walk law, only how the kernel draws and prefetches.

/// Substrates whose every vertex has the same degree advertise
/// `static constexpr bool uniform_degree = true`; the lane kernel then
/// hoists the degree (and the power-of-two check behind the mask draw)
/// out of the round loop entirely.
template <class S>
concept UniformDegreeSubstrate =
    Substrate<S> && static_cast<bool>(S::uniform_degree);

/// Uniform-degree substrates whose degree is a power of two for EVERY
/// parameterization additionally advertise
/// `static constexpr bool pow2_degree = true`; the lane kernel replaces
/// Lemire's multiply with a single mask of the raw 64-bit word at compile
/// time. (The hypercube's degree is its dimension, a power of two only for
/// some instances, so it advertises uniform_degree and gets the mask path
/// through the kernel's hoisted runtime check instead.)
template <class S>
concept Pow2DegreeSubstrate =
    UniformDegreeSubstrate<S> && static_cast<bool>(S::pow2_degree);

/// Substrates backed by in-memory adjacency arrays expose their arc
/// addressing so the lane kernel can split "resolve the arc" from "load
/// the neighbor" and prefetch between the two — the pipelining that turns
/// k independent lanes into k memory requests in flight. regular_stride()
/// additionally reports a uniform row stride (the degree of a regular
/// graph, 0 otherwise), which removes the offset-row load from the
/// kernel's per-step dependency chain entirely: arc = stride*v + draw.
template <class S>
concept ArcAddressableSubstrate =
    Substrate<S> && requires(const S s, Vertex v, Vertex i, std::uint64_t a) {
      s.prefetch_degree_row(v);
      { s.arc_index(v, i) } -> std::convertible_to<std::uint64_t>;
      s.prefetch_arc(a);
      { s.arc_target(a) } -> std::convertible_to<Vertex>;
      { s.regular_stride() } -> std::convertible_to<Vertex>;
    };

/// Wraps a Graph's live CSR arrays (pointers, not a copy — the Graph must
/// outlive the substrate and every engine bound to it).
/// Equality compares the array identities, so a cached engine can never
/// silently run against a different graph.
class CsrSubstrate {
 public:
  explicit CsrSubstrate(const Graph& g)
      : CsrSubstrate(g.offsets().data(), g.targets().data(), g.num_vertices(),
                     g.num_vertices() > 0 ? g.min_degree() : 0,
                     g.num_vertices() > 0 ? g.max_degree() : 0) {}

  /// Binds raw CSR arrays directly — the zero-copy path a memory-mapped
  /// graph (storage/mapped_graph.hpp) uses. `row` must hold
  /// num_vertices+1 offsets and `adj` the full arc array; both must
  /// outlive the substrate, exactly like a bound Graph's arrays. The degree
  /// extremes come from the caller (the mwg header caches them) so binding
  /// stays O(1).
  CsrSubstrate(const std::uint64_t* row, const Vertex* adj,
               Vertex num_vertices, Vertex min_degree, Vertex max_degree)
      : row_(row),
        adj_(adj),
        num_vertices_(num_vertices),
        regular_stride_(min_degree == max_degree ? min_degree : 0) {
    // Uphold the substrate invariant (walkable by construction): a
    // degree-0 vertex would make neighbor() read past its empty row.
    MW_REQUIRE(num_vertices_ >= 1, "CSR substrate needs at least one vertex");
    MW_REQUIRE(min_degree >= 1,
               "CSR substrate needs min degree >= 1 (isolated vertex)");
  }

  Vertex num_vertices() const noexcept { return num_vertices_; }
  Vertex degree(Vertex v) const noexcept {
    return static_cast<Vertex>(row_[v + 1] - row_[v]);
  }
  Vertex neighbor(Vertex v, Vertex i) const noexcept {
    return adj_[row_[v] + i];
  }

  // Arc addressing for the lane kernel's prefetch pipeline. arc_index
  // resolves an (offset-row) load, arc_target a (targets-array) load; the
  // kernel prefetches each one a stage ahead of its use.
  void prefetch_degree_row(Vertex v) const noexcept { mw_prefetch(row_ + v); }
  std::uint64_t arc_index(Vertex v, Vertex i) const noexcept {
    return row_[v] + i;
  }
  void prefetch_arc(std::uint64_t arc) const noexcept {
    mw_prefetch(adj_ + arc);
  }
  Vertex arc_target(std::uint64_t arc) const noexcept { return adj_[arc]; }
  /// Degree of a regular graph (every row the same length, so
  /// arc_index(v, i) == stride*v + i with no row load), 0 otherwise.
  Vertex regular_stride() const noexcept { return regular_stride_; }

  /// The live offsets array (n+1 entries) — what stationary-start
  /// sampling binary-searches. Exposed because a CsrSubstrate can be the
  /// ONLY handle on a graph: a memory-mapped file never materializes a
  /// Graph (storage/mapped_graph.hpp).
  std::span<const std::uint64_t> offsets() const noexcept {
    return {row_, static_cast<std::size_t>(num_vertices_) + 1};
  }

  /// True iff this substrate reads exactly g's live CSR arrays. A pure
  /// comparison (never throws), unlike constructing a CsrSubstrate from g,
  /// so it stays a query even for invalid graphs.
  bool reads_arrays_of(const Graph& g) const noexcept {
    return row_ == g.offsets().data() && adj_ == g.targets().data() &&
           num_vertices_ == g.num_vertices();
  }

  bool operator==(const CsrSubstrate&) const noexcept = default;

 private:
  const std::uint64_t* row_;  // |V|+1 entries, from Graph::offsets()
  const Vertex* adj_;         // num_arcs entries, from Graph::targets()
  Vertex num_vertices_;
  Vertex regular_stride_;     // degree if regular, else 0
};

/// Cycle L_n in O(1) space. Neighbor order matches make_cycle's sorted CSR
/// rows, so cover samples are bit-identical to the CSR engine per stream.
class CycleSubstrate {
 public:
  explicit CycleSubstrate(Vertex n) : n_(n) {
    MW_REQUIRE(n >= 3, "cycle substrate needs n >= 3, got " << n);
  }

  static constexpr bool uniform_degree = true;
  static constexpr bool pow2_degree = true;  // degree 2 everywhere

  Vertex num_vertices() const noexcept { return n_; }
  Vertex degree(Vertex) const noexcept { return 2; }
  Vertex neighbor(Vertex v, Vertex i) const noexcept {
    const Vertex prev = v == 0 ? n_ - 1 : v - 1;
    const Vertex next = v + 1 == n_ ? 0 : v + 1;
    const Vertex lo = std::min(prev, next);
    const Vertex hi = std::max(prev, next);
    return i == 0 ? lo : hi;
  }

  bool operator==(const CycleSubstrate&) const noexcept = default;

 private:
  Vertex n_;
};

/// side x side 2-d torus (make_grid_2d's row-major indexing: v = x*side+y).
/// The four wrap-around neighbors are returned in ascending (CSR) order.
class TorusSubstrate {
 public:
  explicit TorusSubstrate(Vertex side)
      : side_(side), n_(side * side) {
    MW_REQUIRE(side >= 3, "torus substrate needs side >= 3, got " << side);
    MW_REQUIRE(n_ / side == side, "torus side " << side << " overflows Vertex");
  }

  static constexpr bool uniform_degree = true;
  static constexpr bool pow2_degree = true;  // degree 4 everywhere

  Vertex side() const noexcept { return side_; }
  Vertex num_vertices() const noexcept { return n_; }
  Vertex degree(Vertex) const noexcept { return 4; }
  Vertex neighbor(Vertex v, Vertex i) const noexcept {
    const Vertex x = v / side_;
    const Vertex y = v - x * side_;
    const Vertex xm = x == 0 ? side_ - 1 : x - 1;
    const Vertex xp = x + 1 == side_ ? 0 : x + 1;
    const Vertex ym = y == 0 ? side_ - 1 : y - 1;
    const Vertex yp = y + 1 == side_ ? 0 : y + 1;
    Vertex a = xm * side_ + y;
    Vertex b = xp * side_ + y;
    Vertex c = x * side_ + ym;
    Vertex d = x * side_ + yp;
    // 5-exchange sorting network; side >= 3 keeps all four distinct.
    if (a > b) std::swap(a, b);
    if (c > d) std::swap(c, d);
    if (a > c) std::swap(a, c);
    if (b > d) std::swap(b, d);
    if (b > c) std::swap(b, c);
    const Vertex sorted[4] = {a, b, c, d};
    return sorted[i];
  }

  bool operator==(const TorusSubstrate&) const noexcept = default;

 private:
  Vertex side_;
  Vertex n_;
};

/// Hypercube on 2^dimension vertices: neighbor i flips bit i. That is a
/// per-vertex permutation of the sorted CSR row — the walk law matches
/// make_hypercube exactly, but streams are not bit-comparable to CSR.
class HypercubeSubstrate {
 public:
  explicit HypercubeSubstrate(unsigned dimension) : dimension_(dimension) {
    MW_REQUIRE(dimension >= 1 && dimension < 32,
               "hypercube substrate needs dimension in [1,32), got "
                   << dimension);
  }

  // Degree = dimension, the same at every vertex but a power of two only
  // for some dimensions; the lane kernel's hoisted runtime check promotes
  // pow2 instances to the mask draw.
  static constexpr bool uniform_degree = true;

  unsigned dimension() const noexcept { return dimension_; }
  Vertex num_vertices() const noexcept { return Vertex{1} << dimension_; }
  Vertex degree(Vertex) const noexcept {
    return static_cast<Vertex>(dimension_);
  }
  Vertex neighbor(Vertex v, Vertex i) const noexcept {
    return v ^ (Vertex{1} << i);
  }

  bool operator==(const HypercubeSubstrate&) const noexcept = default;

 private:
  unsigned dimension_;
};

/// Complete graph K_n (no self loops): neighbor list of v is every other
/// vertex in ascending order, matching make_complete's CSR rows.
class CompleteSubstrate {
 public:
  explicit CompleteSubstrate(Vertex n) : n_(n) {
    MW_REQUIRE(n >= 2, "complete substrate needs n >= 2, got " << n);
  }

  static constexpr bool uniform_degree = true;  // n-1, rarely a power of two

  Vertex num_vertices() const noexcept { return n_; }
  Vertex degree(Vertex) const noexcept { return n_ - 1; }
  Vertex neighbor(Vertex v, Vertex i) const noexcept {
    return i + (i >= v ? 1 : 0);
  }

  bool operator==(const CompleteSubstrate&) const noexcept = default;

 private:
  Vertex n_;
};

/// What the walk samplers and estimators accept: an explicit Graph or any
/// substrate. Each is one template that calls as_substrate on its argument.
template <class G>
concept Walkable = std::same_as<G, Graph> || Substrate<G>;

/// A Graph walks through a CsrSubstrate over its live arrays; constructing
/// it re-checks walkability (min degree >= 1) in O(1), because Graph caches
/// its degree extremes.
inline CsrSubstrate as_substrate(const Graph& g) { return CsrSubstrate(g); }

/// A substrate walks as itself.
template <Substrate S>
const S& as_substrate(const S& substrate) {
  return substrate;
}

static_assert(Substrate<CsrSubstrate>);
static_assert(Substrate<CycleSubstrate>);
static_assert(Substrate<TorusSubstrate>);
static_assert(Substrate<HypercubeSubstrate>);
static_assert(Substrate<CompleteSubstrate>);
static_assert(!Substrate<Graph>, "Graph must go through CsrSubstrate");
static_assert(Walkable<Graph> && Walkable<CycleSubstrate>);

static_assert(ArcAddressableSubstrate<CsrSubstrate>);
static_assert(!ArcAddressableSubstrate<CycleSubstrate>);
static_assert(Pow2DegreeSubstrate<CycleSubstrate>);
static_assert(Pow2DegreeSubstrate<TorusSubstrate>);
static_assert(UniformDegreeSubstrate<HypercubeSubstrate> &&
              !Pow2DegreeSubstrate<HypercubeSubstrate>);
static_assert(UniformDegreeSubstrate<CompleteSubstrate> &&
              !Pow2DegreeSubstrate<CompleteSubstrate>);
static_assert(!UniformDegreeSubstrate<CsrSubstrate>);

}  // namespace manywalks
