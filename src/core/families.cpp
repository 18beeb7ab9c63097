#include "core/families.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "theory/closed_forms.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace manywalks {

namespace {

struct FamilyNameEntry {
  GraphFamily family;
  std::string_view name;
};

constexpr FamilyNameEntry kFamilyNames[] = {
    {GraphFamily::kCycle, "cycle"},
    {GraphFamily::kPath, "path"},
    {GraphFamily::kComplete, "complete"},
    {GraphFamily::kCompleteLoops, "complete-loops"},
    {GraphFamily::kStar, "star"},
    {GraphFamily::kGrid2d, "grid2d"},
    {GraphFamily::kGrid3d, "grid3d"},
    {GraphFamily::kHypercube, "hypercube"},
    {GraphFamily::kBalancedTree, "balanced-tree"},
    {GraphFamily::kBarbell, "barbell"},
    {GraphFamily::kLollipop, "lollipop"},
    {GraphFamily::kMargulis, "margulis"},
    {GraphFamily::kRandomRegular, "random-regular"},
    {GraphFamily::kErdosRenyi, "erdos-renyi"},
    {GraphFamily::kRandomGeometric, "random-geometric"},
};

/// Nearest odd integer >= lo.
std::uint64_t make_odd(std::uint64_t n, std::uint64_t lo) {
  n = std::max(n, lo);
  return (n % 2 == 0) ? n + 1 : n;
}

// The natural parameterization of each family with a closed-form
// substrate, shared by make_family_instance and make_family_substrate.

/// Odd n keeps the plain walk aperiodic (even cycles are bipartite).
Vertex cycle_size(std::uint64_t target_n) {
  return static_cast<Vertex>(make_odd(target_n, 5));
}

Vertex complete_size(std::uint64_t target_n) {
  return static_cast<Vertex>(std::max<std::uint64_t>(target_n, 4));
}

Vertex grid2d_side(std::uint64_t target_n) {
  return static_cast<Vertex>(make_odd(
      static_cast<std::uint64_t>(
          std::llround(std::sqrt(static_cast<double>(target_n)))),
      3));
}

unsigned hypercube_dimension(std::uint64_t target_n) {
  return static_cast<unsigned>(std::max<std::int64_t>(
      2, std::llround(std::log2(static_cast<double>(target_n)))));
}

std::string instance_name(std::string_view family, Vertex n) {
  std::ostringstream os;
  os << family << "(n=" << n << ")";
  return os.str();
}

}  // namespace

std::string_view family_name(GraphFamily family) {
  for (const auto& entry : kFamilyNames) {
    if (entry.family == family) return entry.name;
  }
  MW_REQUIRE(false, "unknown family enum value");
  return {};
}

std::optional<GraphFamily> family_from_name(std::string_view name) {
  for (const auto& entry : kFamilyNames) {
    if (entry.name == name) return entry.family;
  }
  return std::nullopt;
}

std::vector<GraphFamily> all_families() {
  std::vector<GraphFamily> out;
  for (const auto& entry : kFamilyNames) out.push_back(entry.family);
  return out;
}

std::vector<GraphFamily> table1_families() {
  return {GraphFamily::kCycle,     GraphFamily::kGrid2d,
          GraphFamily::kGrid3d,    GraphFamily::kHypercube,
          GraphFamily::kComplete,  GraphFamily::kMargulis,
          GraphFamily::kErdosRenyi};
}

Vertex barbell_vertex_count(std::uint64_t target_n) {
  return static_cast<Vertex>(make_odd(target_n, 7));
}

std::optional<FamilySubstrate> make_family_substrate(GraphFamily family,
                                                     std::uint64_t target_n) {
  MW_REQUIRE(target_n >= 4, "family instances need target_n >= 4");
  switch (family) {
    case GraphFamily::kCycle:
      return CycleSubstrate(cycle_size(target_n));
    case GraphFamily::kComplete:
      return CompleteSubstrate(complete_size(target_n));
    case GraphFamily::kGrid2d:
      return TorusSubstrate(grid2d_side(target_n));
    case GraphFamily::kHypercube:
      return HypercubeSubstrate(hypercube_dimension(target_n));
    default:
      return std::nullopt;
  }
}

FamilyInstance make_family_instance(GraphFamily family, std::uint64_t target_n,
                                    std::uint64_t seed) {
  MW_REQUIRE(target_n >= 4, "family instances need target_n >= 4");
  FamilyInstance inst;
  inst.family = family;
  Rng rng(mix64(seed ^ 0xfa311ULL));

  switch (family) {
    case GraphFamily::kCycle: {
      const Vertex n = cycle_size(target_n);
      inst.graph = make_cycle(n);
      inst.theory.cover = cycle_cover_time(n);
      inst.theory.cover_exact = true;
      inst.theory.cover_formula = "n(n-1)/2";
      inst.theory.h_max = cycle_max_hitting_time(n);
      inst.theory.h_max_exact = true;
      inst.theory.hitting_formula = "⌊n/2⌋⌈n/2⌉";
      inst.theory.mixing = static_cast<double>(n) * static_cast<double>(n);
      inst.theory.mixing_formula = "O(n^2)";
      inst.theory.speedup_regime = "log k";
      break;
    }
    case GraphFamily::kPath: {
      const auto n = static_cast<Vertex>(std::max<std::uint64_t>(target_n, 4));
      inst.graph = make_path(n);
      inst.needs_lazy_mixing = true;  // paths are bipartite
      inst.theory.cover = path_cover_time(n);
      inst.theory.cover_exact = true;
      inst.theory.cover_formula = "(n-1)^2";
      inst.theory.h_max = path_cover_time(n);
      inst.theory.h_max_exact = true;
      inst.theory.hitting_formula = "(n-1)^2";
      inst.theory.mixing = static_cast<double>(n) * static_cast<double>(n);
      inst.theory.mixing_formula = "O(n^2)";
      inst.theory.speedup_regime = "log k";
      break;
    }
    case GraphFamily::kComplete: {
      const Vertex n = complete_size(target_n);
      inst.graph = make_complete(n);
      inst.theory.cover = complete_cover_time(n);
      inst.theory.cover_exact = true;
      inst.theory.cover_formula = "(n-1)H_{n-1}";
      inst.theory.h_max = complete_hitting_time(n);
      inst.theory.h_max_exact = true;
      inst.theory.hitting_formula = "n-1";
      inst.theory.mixing = 1.0;
      inst.theory.mixing_formula = "O(1)";
      inst.theory.speedup_regime = "k, k < n";
      break;
    }
    case GraphFamily::kCompleteLoops: {
      const auto n = static_cast<Vertex>(std::max<std::uint64_t>(target_n, 4));
      inst.graph = make_complete(n, /*with_self_loops=*/true);
      inst.theory.cover = complete_with_loops_cover_time(n);
      inst.theory.cover_exact = true;
      inst.theory.cover_formula = "n·H_{n-1}";
      inst.theory.h_max = static_cast<double>(n);
      inst.theory.h_max_exact = true;
      inst.theory.hitting_formula = "n";
      inst.theory.mixing = 1.0;
      inst.theory.mixing_formula = "1";
      inst.theory.speedup_regime = "k, k < n";
      break;
    }
    case GraphFamily::kStar: {
      const auto n = static_cast<Vertex>(std::max<std::uint64_t>(target_n, 4));
      inst.graph = make_star(n);
      inst.start = 0;  // hub is the worst start
      inst.needs_lazy_mixing = true;  // stars are bipartite
      inst.theory.cover = star_cover_time(n);
      inst.theory.cover_exact = true;
      inst.theory.cover_formula = "2(n-1)H_{n-1}-1";
      inst.theory.h_max = star_max_hitting_time(n);
      inst.theory.h_max_exact = true;
      inst.theory.hitting_formula = "2n-2";
      inst.theory.mixing = 1.0;
      inst.theory.mixing_formula = "O(1) (lazy)";
      inst.theory.speedup_regime = "k, k ≲ log n";
      break;
    }
    case GraphFamily::kGrid2d: {
      inst.graph = make_grid_2d(grid2d_side(target_n), GridTopology::kTorus);
      const Vertex n = inst.graph.num_vertices();
      inst.theory.cover = torus2d_cover_time_asymptotic(n);
      inst.theory.cover_formula = "(1/π) n ln^2 n";
      inst.theory.h_max = torus2d_max_hitting_asymptotic(n);
      inst.theory.hitting_formula = "(2/π) n ln n";
      inst.theory.mixing = static_cast<double>(n);
      inst.theory.mixing_formula = "Θ(n)";
      inst.theory.speedup_regime = "k, k < log^{1-ε} n";
      break;
    }
    case GraphFamily::kGrid3d: {
      const auto side = static_cast<Vertex>(make_odd(
          static_cast<std::uint64_t>(std::llround(
              std::cbrt(static_cast<double>(target_n)))),
          3));
      inst.graph = make_torus(side, 3);
      const Vertex n = inst.graph.num_vertices();
      inst.theory.cover = torusd_cover_time_asymptotic(n, 3);
      inst.theory.cover_formula = "~1.52 n ln n";
      inst.theory.h_max = 1.516 * static_cast<double>(n);
      inst.theory.hitting_formula = "Θ(n)";
      inst.theory.mixing = std::pow(static_cast<double>(n), 2.0 / 3.0);
      inst.theory.mixing_formula = "Θ(n^{2/3})";
      inst.theory.speedup_regime = "k, k < log^{1-ε} n";
      break;
    }
    case GraphFamily::kHypercube: {
      inst.graph = make_hypercube(hypercube_dimension(target_n));
      const Vertex n = inst.graph.num_vertices();
      inst.needs_lazy_mixing = true;  // hypercubes are bipartite
      inst.theory.cover = hypercube_cover_time_asymptotic(n);
      inst.theory.cover_formula = "n ln n";
      inst.theory.h_max = static_cast<double>(n);
      inst.theory.hitting_formula = "Θ(n)";
      inst.theory.mixing =
          std::log2(static_cast<double>(n)) *
          std::log(std::log(static_cast<double>(n)) + 1.0);
      inst.theory.mixing_formula = "log n · log log n";
      inst.theory.speedup_regime = "k, k < log^{1-ε} n";
      break;
    }
    case GraphFamily::kBalancedTree: {
      const auto height = static_cast<unsigned>(std::max<std::int64_t>(
          2,
          std::llround(std::log2(static_cast<double>(target_n) + 1.0)) - 1));
      inst.graph = make_balanced_tree(2, height);
      const Vertex n = inst.graph.num_vertices();
      inst.start = n - 1;  // deepest leaf: the worst start
      inst.needs_lazy_mixing = true;  // trees are bipartite
      const double x = static_cast<double>(n);
      inst.theory.cover = 2.0 * x * std::log2(x) * std::log(x);
      inst.theory.cover_formula = "Θ(n log^2 n)";
      inst.theory.h_max = 2.0 * x * std::log2(x);
      inst.theory.hitting_formula = "Θ(n log n)";
      inst.theory.mixing = x;
      inst.theory.mixing_formula = "Θ(n)";
      inst.theory.speedup_regime = "k, k ≲ log n";
      break;
    }
    case GraphFamily::kBarbell: {
      const Vertex n = barbell_vertex_count(target_n);
      inst.graph = make_barbell(n);
      inst.start = barbell_center(n);
      const double x = static_cast<double>(n);
      inst.theory.cover = x * x / 8.0;  // order-level constant
      inst.theory.cover_formula = "Θ(n^2)";
      inst.theory.h_max = x * x / 8.0;
      inst.theory.hitting_formula = "Θ(n^2)";
      inst.theory.mixing = x * x / 8.0;
      inst.theory.mixing_formula = "Θ(n^2)";
      inst.theory.speedup_regime = "Ω(n) at k = Θ(log n) from center";
      break;
    }
    case GraphFamily::kLollipop: {
      const auto n = static_cast<Vertex>(std::max<std::uint64_t>(target_n, 6));
      inst.graph = make_lollipop(n);
      inst.start = 0;  // clique vertex: the Θ(n^3) start
      const double x = static_cast<double>(n);
      inst.theory.cover = 4.0 * x * x * x / 27.0;
      inst.theory.cover_formula = "Θ(n^3)";
      inst.theory.h_max = 4.0 * x * x * x / 27.0;
      inst.theory.hitting_formula = "Θ(n^3)";
      inst.theory.mixing = x * x;
      inst.theory.mixing_formula = "Θ(n^2)";
      inst.theory.speedup_regime = "(unstudied; gap g(n) = Θ(1))";
      break;
    }
    case GraphFamily::kMargulis: {
      const auto side = static_cast<Vertex>(std::max<std::int64_t>(
          2, std::llround(std::sqrt(static_cast<double>(target_n)))));
      inst.graph = make_margulis_expander(side);
      const Vertex n = inst.graph.num_vertices();
      inst.theory.cover = nlogn_cover_time(n);
      inst.theory.cover_formula = "Θ(n ln n)";
      inst.theory.h_max = static_cast<double>(n);
      inst.theory.hitting_formula = "Θ(n)";
      inst.theory.mixing = std::log(static_cast<double>(n));
      inst.theory.mixing_formula = "O(log n)";
      inst.theory.speedup_regime = "Ω(k), k < n";
      break;
    }
    case GraphFamily::kRandomRegular: {
      const auto n = static_cast<Vertex>(std::max<std::uint64_t>(target_n, 10));
      inst.graph = make_random_regular(n, 8, rng);
      inst.theory.cover = nlogn_cover_time(n);
      inst.theory.cover_formula = "Θ(n ln n)";
      inst.theory.h_max = static_cast<double>(n);
      inst.theory.hitting_formula = "Θ(n)";
      inst.theory.mixing = std::log(static_cast<double>(n));
      inst.theory.mixing_formula = "O(log n)";
      inst.theory.speedup_regime = "Ω(k), k < n";
      break;
    }
    case GraphFamily::kErdosRenyi: {
      const auto n = static_cast<Vertex>(std::max<std::uint64_t>(target_n, 16));
      const double p = 2.0 * std::log(static_cast<double>(n)) /
                       static_cast<double>(n);
      inst.graph = make_erdos_renyi_connected(n, p, rng);
      inst.theory.cover = nlogn_cover_time(n);
      inst.theory.cover_formula = "Θ(n ln n)";
      inst.theory.h_max = static_cast<double>(n);
      inst.theory.hitting_formula = "Θ(n)";
      inst.theory.mixing = std::log(static_cast<double>(n));
      inst.theory.mixing_formula = "O(log n)";
      inst.theory.speedup_regime = "k, k < log^{1-ε} n";
      break;
    }
    case GraphFamily::kRandomGeometric: {
      const auto n = static_cast<Vertex>(std::max<std::uint64_t>(target_n, 16));
      const double r = random_geometric_connectivity_radius(n, 3.0);
      Graph g = make_random_geometric(n, r, rng);
      if (!is_connected(g)) {
        g = extract_largest_component(g).graph;
      }
      inst.graph = std::move(g);
      const double x = static_cast<double>(inst.graph.num_vertices());
      inst.theory.cover = x * std::log(x) * std::log(x);
      inst.theory.cover_formula = "Θ(n log^2 n)";  // r at the conn. threshold
      inst.theory.h_max = x * std::log(x);
      inst.theory.hitting_formula = "O(n log n)";
      inst.theory.mixing = x;  // order-level; depends on r
      inst.theory.mixing_formula = "poly(r^{-1})";
      inst.theory.speedup_regime = "k, k ≲ log n";
      break;
    }
  }

  inst.name = instance_name(family_name(family), inst.graph.num_vertices());
  MW_REQUIRE(inst.start < inst.graph.num_vertices(),
             "canonical start out of range");
  return inst;
}

}  // namespace manywalks
