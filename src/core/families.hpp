// The paper-facing family registry: every graph family from Table 1 and
// §6/§7, instantiated with canonical parameters, a canonical starting
// vertex, and the paper's predicted orders (the "theory profile") for
// side-by-side reporting.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "graph/graph.hpp"
#include "graph/substrate.hpp"

namespace manywalks {

enum class GraphFamily {
  kCycle,            ///< ring L_n (Thm 6: S^k = Θ(log k))
  kPath,             ///< path P_n
  kComplete,         ///< K_n
  kCompleteLoops,    ///< K_n with one self loop per vertex (Lemma 12)
  kStar,             ///< star S_n
  kGrid2d,           ///< 2-D torus (Thm 8)
  kGrid3d,           ///< 3-D torus
  kHypercube,        ///< 2^d-vertex hypercube
  kBalancedTree,     ///< complete binary tree
  kBarbell,          ///< B_n (Thm 7: exponential speed-up from center)
  kLollipop,         ///< Θ(n^3) cover-time worst case
  kMargulis,         ///< Margulis–Gabber–Galil 8-regular expander
  kRandomRegular,    ///< random 8-regular graph (expander w.h.p.)
  kErdosRenyi,       ///< G(n, p) with p = 2 ln n / n (connected regime)
  kRandomGeometric,  ///< RGG above the connectivity radius
};

std::string_view family_name(GraphFamily family);
std::optional<GraphFamily> family_from_name(std::string_view name);
std::vector<GraphFamily> all_families();

/// The seven families of the paper's Table 1 (expander row = Margulis).
std::vector<GraphFamily> table1_families();

/// The paper's predicted orders for one family instance, evaluated at its
/// concrete n. `*_exact` marks closed-form values (test oracles); otherwise
/// the value is an order-of-magnitude reference with a literature constant.
struct TheoryProfile {
  double cover = 0.0;
  bool cover_exact = false;
  std::string cover_formula;

  double h_max = 0.0;
  bool h_max_exact = false;
  std::string hitting_formula;

  double mixing = 0.0;
  std::string mixing_formula;

  /// Table 1's speed-up column, e.g. "k, k <= log n" or "log k".
  std::string speedup_regime;
};

/// A ready-to-measure family instance.
struct FamilyInstance {
  GraphFamily family = GraphFamily::kCycle;
  std::string name;  ///< e.g. "cycle(n=1025)"
  Graph graph;
  Vertex start = 0;  ///< canonical start (worst start where known)
  /// True when the plain walk is periodic (bipartite graph) and mixing must
  /// be measured on the lazy chain.
  bool needs_lazy_mixing = false;
  TheoryProfile theory;
};

/// Builds a family instance with roughly `target_n` vertices (rounded to
/// the family's natural parameterization: squares for grids, powers of two
/// for hypercubes, odd n for barbells and cycles, ...). `seed` feeds the
/// random families.
FamilyInstance make_family_instance(GraphFamily family, std::uint64_t target_n,
                                    std::uint64_t seed = 1);

/// The vertex count of make_family_instance(kBarbell, target_n): odd, at
/// least 7 — for sizing per-n work before the graph is built.
Vertex barbell_vertex_count(std::uint64_t target_n);

/// A family's closed-form adjacency (graph/substrate.hpp).
using FamilySubstrate = std::variant<CycleSubstrate, CompleteSubstrate,
                                     TorusSubstrate, HypercubeSubstrate>;

/// The substrate of the graph make_family_instance(family, target_n) builds
/// — the same rounding, so the same vertex count and arc multiset — for
/// cycle, complete, grid2d (a torus) and hypercube; nullopt for every other
/// family, which needs an in-core build. Rejects target_n < 4 like
/// make_family_instance.
std::optional<FamilySubstrate> make_family_substrate(GraphFamily family,
                                                     std::uint64_t target_n);

}  // namespace manywalks
