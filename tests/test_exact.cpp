#include "theory/exact.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/families.hpp"
#include "graph/generators.hpp"
#include "theory/closed_forms.hpp"

namespace manywalks {
namespace {

TEST(HittingTimesTo, CycleClosedForm) {
  const Vertex n = 10;
  const Graph g = make_cycle(n);
  const auto h = hitting_times_to(g, 0);
  for (Vertex v = 1; v < n; ++v) {
    const std::uint64_t d = std::min<std::uint64_t>(v, n - v);
    EXPECT_NEAR(h[v], cycle_hitting_time(n, d), 1e-8) << "v=" << v;
  }
  EXPECT_DOUBLE_EQ(h[0], 0.0);
}

TEST(HittingTimesTo, PathClosedForm) {
  const Vertex n = 7;
  const Graph g = make_path(n);
  const auto h = hitting_times_to(g, n - 1);
  for (Vertex v = 0; v < n; ++v) {
    EXPECT_NEAR(h[v], path_hitting_time(n, v, n - 1), 1e-8);
  }
}

TEST(HittingTimesTo, CompleteClosedForm) {
  const Graph g = make_complete(8);
  const auto h = hitting_times_to(g, 3);
  for (Vertex v = 0; v < 8; ++v) {
    if (v == 3) continue;
    EXPECT_NEAR(h[v], 7.0, 1e-9);
  }
}

TEST(HittingTimesTo, StarClosedForm) {
  const Vertex n = 9;
  const Graph g = make_star(n);
  const auto to_hub = hitting_times_to(g, 0);
  for (Vertex v = 1; v < n; ++v) EXPECT_NEAR(to_hub[v], 1.0, 1e-10);
  const auto to_leaf = hitting_times_to(g, 1);
  EXPECT_NEAR(to_leaf[0], 2.0 * n - 3.0, 1e-8);
  EXPECT_NEAR(to_leaf[2], 2.0 * n - 2.0, 1e-8);
}

/// Checks column `target` of the all-pairs matrix against the independent
/// (I - Q) elimination of hitting_times_to, relative to the exact value.
void expect_column_matches(const Graph& g, const DenseMatrix& h, Vertex target,
                           double rel_tol) {
  const auto column = hitting_times_to(g, target);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_NEAR(h.at(v, target), column[v],
                rel_tol * std::max(1.0, column[v]))
        << "v=" << v << " target=" << target;
  }
}

TEST(HittingTimeMatrix, AgreesWithSingleTargetSolves) {
  // Loops (complete with loops), loops plus parallel edges (Margulis) and an
  // ill-conditioned Theta(n^3) instance (lollipop) alongside simple graphs.
  for (const Graph& g :
       {make_cycle(8), make_barbell(9), make_star(6),
        make_grid_2d(3, GridTopology::kOpen),
        make_complete(12, /*with_self_loops=*/true),
        make_margulis_expander(4), make_lollipop(18)}) {
    const DenseMatrix h = hitting_time_matrix(g);
    for (Vertex target : {Vertex{0}, static_cast<Vertex>(g.num_vertices() / 2)}) {
      expect_column_matches(g, h, target, 1e-9);
    }
  }
}

TEST(HittingTimeMatrix, AgreesAtTableOneSizes) {
  // The experiments' own instances (n from 256 to 343), including the
  // column of the h_max pair.
  for (GraphFamily family : table1_families()) {
    const FamilyInstance inst = make_family_instance(family, 256);
    const Graph& g = inst.graph;
    const DenseMatrix h = hitting_time_matrix(g);
    const HittingExtremes ext = hitting_extremes(h);
    SCOPED_TRACE(inst.name);
    for (Vertex target : {Vertex{0}, static_cast<Vertex>(g.num_vertices() / 2),
                          ext.argmax_to}) {
      expect_column_matches(g, h, target, 1e-9);
    }
  }
}

TEST(HittingTimeMatrix, ClosedFormsAtExperimentSizes) {
  const auto expect_rel = [](double got, double want) {
    EXPECT_NEAR(got, want, 1e-9 * want);
  };
  const auto h_max = [](const Graph& g) {
    return hitting_extremes(hitting_time_matrix(g)).h_max;
  };
  expect_rel(h_max(make_cycle(257)), (257.0 * 257.0 - 1.0) / 4.0);
  expect_rel(h_max(make_cycle(256)), 256.0 * 256.0 / 4.0);
  expect_rel(h_max(make_complete(256)), 255.0);
  expect_rel(h_max(make_star(256)), 2.0 * 256.0 - 2.0);
  expect_rel(hitting_time_matrix(make_path(200)).at(0, 199), 199.0 * 199.0);
}

TEST(HittingTimeMatrix, WorksOnPeriodicChains) {
  // Even cycle: the chain is periodic, but the Laplacian formula must still
  // produce the d(n-d) values.
  const Vertex n = 8;
  const DenseMatrix h = hitting_time_matrix(make_cycle(n));
  for (Vertex v = 1; v < n; ++v) {
    const std::uint64_t d = std::min<std::uint64_t>(v, n - v);
    EXPECT_NEAR(h.at(0, v), cycle_hitting_time(n, d), 1e-7);
  }
}

TEST(HittingExtremesTest, CycleMax) {
  const auto ext = hitting_extremes(make_cycle(10));
  EXPECT_NEAR(ext.h_max, 25.0, 1e-8);
  EXPECT_NEAR(ext.h_min, 9.0, 1e-8);
}

TEST(HittingExtremesTest, StarMinIsLeafToHub) {
  const auto ext = hitting_extremes(make_star(7));
  EXPECT_NEAR(ext.h_min, 1.0, 1e-10);
  EXPECT_NEAR(ext.h_max, 12.0, 1e-8);  // 2n-2
}

TEST(ExactCoverTime, TwoVertices) {
  EXPECT_NEAR(exact_cover_time(make_path(2), 0), 1.0, 1e-12);
}

TEST(ExactCoverTime, TriangleMatchesCoupon) {
  EXPECT_NEAR(exact_cover_time(make_cycle(3), 0), complete_cover_time(3),
              1e-10);
}

TEST(ExactCoverTime, CycleClosedForm) {
  for (Vertex n : {4u, 5u, 8u, 11u}) {
    EXPECT_NEAR(exact_cover_time(make_cycle(n), 0), cycle_cover_time(n), 1e-8)
        << "n=" << n;
  }
}

TEST(ExactCoverTime, PathFromEndpoint) {
  for (Vertex n : {3u, 5u, 9u}) {
    EXPECT_NEAR(exact_cover_time(make_path(n), 0), path_cover_time(n), 1e-8);
  }
}

TEST(ExactCoverTime, PathBestStartIsEndpointWorstIsCenter) {
  // From an endpoint the walk only has to reach the far end once:
  // C_0 = (n-1)^2 is the MINIMUM over starts. From the center it must
  // reach both ends, which is strictly slower.
  const Graph g = make_path(7);
  const double from_end = exact_cover_time(g, 0);
  const double from_center = exact_cover_time(g, 3);
  EXPECT_GT(from_center, from_end);
  for (Vertex v = 1; v < 6; ++v) {
    const double c = exact_cover_time(g, v);
    EXPECT_GE(c, from_end - 1e-9) << "v=" << v;
    EXPECT_LE(c, from_center + 1e-9) << "v=" << v;
  }
}

TEST(ExactCoverTime, CompleteClosedForm) {
  for (Vertex n : {3u, 5u, 8u}) {
    EXPECT_NEAR(exact_cover_time(make_complete(n), 0), complete_cover_time(n),
                1e-8);
  }
}

TEST(ExactCoverTime, CompleteWithLoopsClosedForm) {
  for (Vertex n : {3u, 6u}) {
    EXPECT_NEAR(exact_cover_time(make_complete(n, true), 0),
                complete_with_loops_cover_time(n), 1e-8);
  }
}

TEST(ExactCoverTime, StarFromHub) {
  for (Vertex n : {3u, 5u, 9u}) {
    EXPECT_NEAR(exact_cover_time(make_star(n), 0), star_cover_time(n), 1e-8);
  }
}

TEST(ExactCoverTime, StarHubIsWorstStart) {
  const Graph g = make_star(8);
  EXPECT_GT(exact_cover_time(g, 0), exact_cover_time(g, 1));
}

TEST(ExactCoverTime, BarbellCenterIsWorstStart) {
  const Graph g = make_barbell(11);
  const double from_center = exact_cover_time(g, barbell_center(11));
  for (Vertex v = 0; v < 11; ++v) {
    EXPECT_LE(exact_cover_time(g, v), from_center + 1e-9) << "v=" << v;
  }
}

TEST(ExactCoverTime, RejectsLargeGraphs) {
  EXPECT_THROW(exact_cover_time(make_cycle(17), 0), std::invalid_argument);
}

TEST(ExactKCoverTime, KOneMatchesSingleWalkOracle) {
  for (const Graph& g : {make_cycle(5), make_star(5), make_path(4)}) {
    const std::vector<Vertex> starts = {0};
    EXPECT_NEAR(exact_k_cover_time(g, starts), exact_cover_time(g, 0), 1e-8);
  }
}

TEST(ExactKCoverTime, TriangleTwoTokensHandComputed) {
  // From (0,0) on C_3: round 1 covers with prob 1/2 (tokens split);
  // otherwise both tokens share a vertex and each round covers with
  // probability 3/4: E = 1 + (1/2)(4/3) = 5/3.
  const std::vector<Vertex> starts = {0, 0};
  EXPECT_NEAR(exact_k_cover_time(make_cycle(3), starts), 5.0 / 3.0, 1e-10);
}

TEST(ExactKCoverTime, TwoTokensOnK2CoverInOneRound) {
  const std::vector<Vertex> starts = {0, 0};
  EXPECT_NEAR(exact_k_cover_time(make_path(2), starts), 1.0, 1e-12);
}

TEST(ExactKCoverTime, StartsCoveringEverythingIsZero) {
  const std::vector<Vertex> starts = {0, 1, 2};
  EXPECT_NEAR(exact_k_cover_time(make_cycle(3), starts), 0.0, 1e-12);
}

TEST(ExactKCoverTime, MoreTokensNeverSlower) {
  const Graph g = make_cycle(5);
  const std::vector<Vertex> one = {0};
  const std::vector<Vertex> two = {0, 0};
  const std::vector<Vertex> three = {0, 0, 0};
  const double c1 = exact_k_cover_time(g, one);
  const double c2 = exact_k_cover_time(g, two);
  const double c3 = exact_k_cover_time(g, three, 2000);
  EXPECT_LT(c2, c1);
  EXPECT_LT(c3, c2);
}

TEST(ExactKCoverTime, SpeedupOnCliqueIsNearLinear) {
  // Lemma 12: on K_n with loops the speed-up is exactly k up to rounding.
  const Graph g = make_complete(6, /*with_self_loops=*/true);
  const std::vector<Vertex> one = {0};
  const std::vector<Vertex> two = {0, 0};
  const double c1 = exact_k_cover_time(g, one);
  const double c2 = exact_k_cover_time(g, two);
  const double speedup = c1 / c2;
  EXPECT_GT(speedup, 1.65);
  EXPECT_LT(speedup, 2.1);
}

TEST(ExactKCoverTime, RejectsOversizedStateSpace) {
  const std::vector<Vertex> starts = {0, 0, 0};
  EXPECT_THROW(exact_k_cover_time(make_cycle(10), starts, 729),
               std::invalid_argument);
}

TEST(EffectiveResistance, SeriesAndParallel) {
  // Path 0-1-2: R(0,2) = 2 (two unit resistors in series).
  EXPECT_NEAR(effective_resistance(make_path(3), 0, 2), 2.0, 1e-10);
  // Parallel edges halve the resistance.
  GraphBuilder b(2);
  b.add_edge(0, 1).add_edge(0, 1);
  GraphBuilder::BuildOptions options;
  options.duplicates = GraphBuilder::DuplicatePolicy::kKeep;
  EXPECT_NEAR(effective_resistance(b.build(options), 0, 1), 0.5, 1e-10);
}

TEST(EffectiveResistance, CycleClosedForm) {
  // R(0, d) on C_n = d(n-d)/n.
  const Vertex n = 12;
  const Graph g = make_cycle(n);
  for (Vertex d : {1u, 3u, 6u}) {
    EXPECT_NEAR(effective_resistance(g, 0, d),
                static_cast<double>(d) * (n - d) / n, 1e-9);
  }
}

TEST(EffectiveResistance, CommuteTimeIdentity) {
  // h(u,v) + h(v,u) = num_arcs * R_eff(u,v) on arbitrary graphs.
  for (const Graph& g : {make_barbell(9), make_star(6), make_cycle(7),
                         make_grid_2d(3, GridTopology::kOpen)}) {
    const DenseMatrix h = hitting_time_matrix(g);
    const double arcs = static_cast<double>(g.num_arcs());
    for (Vertex u = 0; u < g.num_vertices(); u += 2) {
      for (Vertex v = u + 1; v < g.num_vertices(); v += 3) {
        const double commute = h.at(u, v) + h.at(v, u);
        EXPECT_NEAR(commute, arcs * effective_resistance(g, u, v),
                    1e-6 * commute + 1e-8)
            << "u=" << u << " v=" << v;
      }
    }
  }
}

}  // namespace
}  // namespace manywalks
