// Statistical cross-checks: the Monte-Carlo engine against the exact
// Markov-chain oracles. All seeds are fixed, so these "statistical" tests
// are fully deterministic; tolerances are multiples of the measured CI
// half-width.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "mc/estimators.hpp"
#include "theory/closed_forms.hpp"
#include "theory/exact.hpp"
#include "walk/cover.hpp"
#include "walk/engine.hpp"

namespace manywalks {
namespace {

McOptions mc_with(std::uint64_t trials, std::uint64_t seed) {
  McOptions mc;
  mc.min_trials = trials;
  mc.max_trials = trials;
  mc.seed = seed;
  return mc;
}

void expect_ci_contains(const McResult& result, double exact, double sigmas,
                        const std::string& label) {
  EXPECT_NEAR(result.ci.mean, exact, sigmas * result.ci.half_width + 1e-9)
      << label << ": measured " << result.ci.mean << " ± "
      << result.ci.half_width << " vs exact " << exact;
}

struct SingleWalkCase {
  std::string name;
  Graph graph;
  Vertex start;
};

class SingleWalkOracle : public ::testing::TestWithParam<SingleWalkCase> {};

TEST_P(SingleWalkOracle, CoverTimeMatchesSubsetDp) {
  const auto& param = GetParam();
  const double exact = exact_cover_time(param.graph, param.start);
  const auto result = estimate_cover_time(param.graph, param.start,
                                          mc_with(4000, 101));
  expect_ci_contains(result, exact, 5.0, param.name);
}

TEST_P(SingleWalkOracle, HittingTimeMatchesLinearSolve) {
  const auto& param = GetParam();
  const Vertex target = param.graph.num_vertices() - 1;
  if (param.start == target) GTEST_SKIP();
  const auto exact_h = hitting_times_to(param.graph, target);
  const auto result = estimate_hitting_time(param.graph, param.start, target,
                                            mc_with(4000, 102));
  expect_ci_contains(result, exact_h[param.start], 5.0, param.name);
}

INSTANTIATE_TEST_SUITE_P(
    SmallGraphs, SingleWalkOracle,
    ::testing::Values(
        SingleWalkCase{"cycle5", make_cycle(5), 0},
        SingleWalkCase{"cycle8", make_cycle(8), 0},
        SingleWalkCase{"cycle12", make_cycle(12), 3},
        SingleWalkCase{"path6_end", make_path(6), 0},
        SingleWalkCase{"path6_mid", make_path(6), 3},
        SingleWalkCase{"complete6", make_complete(6), 0},
        SingleWalkCase{"complete5_loops", make_complete(5, true), 0},
        SingleWalkCase{"star7_hub", make_star(7), 0},
        SingleWalkCase{"star7_leaf", make_star(7), 2},
        SingleWalkCase{"barbell9_center", make_barbell(9), 4},
        SingleWalkCase{"barbell9_bell", make_barbell(9), 0},
        SingleWalkCase{"grid3x3", make_grid_2d(3, GridTopology::kOpen), 0},
        SingleWalkCase{"hypercube3", make_hypercube(3), 0},
        SingleWalkCase{"tree_2_2", make_balanced_tree(2, 2), 3},
        SingleWalkCase{"lollipop8", make_lollipop(8), 0},
        SingleWalkCase{"bipartite34", make_complete_bipartite(3, 4), 0}),
    [](const ::testing::TestParamInfo<SingleWalkCase>& param_info) {
      return param_info.param.name;
    });

struct KWalkCase {
  std::string name;
  Graph graph;
  std::vector<Vertex> starts;
};

class KWalkOracle : public ::testing::TestWithParam<KWalkCase> {};

TEST_P(KWalkOracle, KCoverTimeMatchesProductChainDp) {
  const auto& param = GetParam();
  const double exact = exact_k_cover_time(param.graph, param.starts, 4096);
  const auto result =
      estimate_multi_cover_time(param.graph, param.starts, mc_with(6000, 103));
  expect_ci_contains(result, exact, 5.0, param.name);
}

INSTANTIATE_TEST_SUITE_P(
    TinyGraphs, KWalkOracle,
    ::testing::Values(
        KWalkCase{"cycle3_k2", make_cycle(3), {0, 0}},
        KWalkCase{"cycle5_k2", make_cycle(5), {0, 0}},
        KWalkCase{"cycle5_k2_split", make_cycle(5), {0, 2}},
        KWalkCase{"cycle5_k3", make_cycle(5), {0, 0, 0}},
        KWalkCase{"path4_k2", make_path(4), {0, 0}},
        KWalkCase{"complete4_k2", make_complete(4), {0, 0}},
        KWalkCase{"complete4_k3", make_complete(4), {0, 0, 0}},
        KWalkCase{"star5_k2", make_star(5), {0, 0}},
        KWalkCase{"k4loops_k2", make_complete(4, true), {0, 0}},
        KWalkCase{"barbell7_k2", make_barbell(7), {3, 3}}),
    [](const ::testing::TestParamInfo<KWalkCase>& param_info) {
      return param_info.param.name;
    });

/// First return time to v on the lane engine: one round off v, then the
/// hitting time back to v from wherever that round landed.
std::uint64_t lane_return_time(const Graph& g, Vertex v, Rng& rng) {
  WalkEngine engine(g);
  const std::vector<Vertex> at = {v};
  engine.reset(at);
  engine.run_for_steps(1, rng);
  const std::vector<Vertex> landed = {engine.tokens()[0]};
  return 1 + sample_hitting_time(g, landed, at, rng).steps;
}

TEST(StatisticalIdentities, ReturnTimeOnK2IsTwo) {
  const Graph g = make_path(2);
  Rng rng(23);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(lane_return_time(g, 0, rng), 2u);
}

TEST(StatisticalIdentities, KacReturnTimeOnStar) {
  // E[return to v] = num_arcs / deg(v); star hub: 8/4 = 2, leaf: 8/1 = 8.
  const Graph g = make_star(5);
  Rng rng(24);
  double hub_total = 0;
  double leaf_total = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    hub_total += static_cast<double>(lane_return_time(g, 0, rng));
    leaf_total += static_cast<double>(lane_return_time(g, 1, rng));
  }
  EXPECT_NEAR(hub_total / trials, 2.0, 0.05);
  EXPECT_NEAR(leaf_total / trials, 8.0, 0.4);
}

TEST(StatisticalIdentities, KacReturnTimeOnBarbell) {
  // E[return to v] = num_arcs / deg(v).
  const Graph g = make_barbell(9);
  const Vertex center = barbell_center(9);
  const double expected =
      static_cast<double>(g.num_arcs()) / g.degree(center);
  Rng rng(904);
  RunningStats stats;
  for (int i = 0; i < 30000; ++i) {
    stats.add(static_cast<double>(lane_return_time(g, center, rng)));
  }
  const auto ci = mean_confidence_interval(stats);
  EXPECT_NEAR(ci.mean, expected, 5.0 * ci.half_width);
}

TEST(StatisticalIdentities, CommuteTimeViaSampling) {
  // h(u,v) + h(v,u) == num_arcs * R_eff(u,v), sampled on the barbell
  // between the two bell interiors.
  const Graph g = make_barbell(9);
  const Vertex u = 0;
  const Vertex v = 8;
  const double expected = static_cast<double>(g.num_arcs()) *
                          effective_resistance(g, u, v);
  const auto there = estimate_hitting_time(g, u, v, mc_with(6000, 905));
  const auto back = estimate_hitting_time(g, v, u, mc_with(6000, 906));
  const double commute = there.ci.mean + back.ci.mean;
  const double tolerance =
      5.0 * (there.ci.half_width + back.ci.half_width) + 1e-9;
  EXPECT_NEAR(commute, expected, tolerance);
}

TEST(StatisticalIdentities, CycleCoverAtScale) {
  // The subset-DP oracle is limited to n <= 16; at larger n we still have
  // the closed form n(n-1)/2.
  const Vertex n = 129;
  const Graph g = make_cycle(n);
  const auto result = estimate_cover_time(g, 0, mc_with(1500, 907));
  expect_ci_contains(result, cycle_cover_time(n), 5.0, "cycle129");
}

TEST(StatisticalIdentities, CompleteCoverAtScale) {
  const Vertex n = 200;
  const Graph g = make_complete(n);
  const auto result = estimate_cover_time(g, 0, mc_with(1500, 908));
  expect_ci_contains(result, complete_cover_time(n), 5.0, "complete200");
}

TEST(StatisticalIdentities, PathCoverAtScale) {
  const Vertex n = 80;
  const Graph g = make_path(n);
  const auto result = estimate_cover_time(g, 0, mc_with(1500, 909));
  expect_ci_contains(result, path_cover_time(n), 5.0, "path80");
}

TEST(StatisticalIdentities, StarCoverAtScale) {
  const Vertex n = 120;
  const Graph g = make_star(n);
  const auto result = estimate_cover_time(g, 0, mc_with(1500, 910));
  expect_ci_contains(result, star_cover_time(n), 5.0, "star120");
}

TEST(StatisticalIdentities, LemmaTwelveCouponArgumentAtScale) {
  // K_n with loops, k walks: C^k ≈ n H_{n-1} / k within one round.
  const Vertex n = 128;
  const unsigned k = 8;
  const Graph g = make_complete(n, true);
  const auto result = estimate_k_cover_time(g, 0, k, mc_with(2000, 911));
  const double predicted = complete_with_loops_k_cover_time(n, k);
  EXPECT_NEAR(result.ci.mean, predicted,
              5.0 * result.ci.half_width + 1.0);  // +1: rounding to rounds
}

TEST(StatisticalIdentities, LazyWalkDoublesCoverTime) {
  // A 1/2-lazy walk takes ~2x the steps of the plain walk to cover.
  const Graph g = make_cycle(33);
  CoverOptions lazy;
  lazy.laziness = 0.5;
  const auto plain = estimate_cover_time(g, 0, mc_with(1500, 912));
  const auto slowed = estimate_cover_time(g, 0, mc_with(1500, 913), lazy);
  const double ratio = slowed.ci.mean / plain.ci.mean;
  EXPECT_NEAR(ratio, 2.0, 0.15);
}

}  // namespace
}  // namespace manywalks
