#include "mc/estimators.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "graph/generators.hpp"
#include "theory/closed_forms.hpp"
#include "theory/exact.hpp"

namespace manywalks {
namespace {

McOptions quick_mc(std::uint64_t trials, std::uint64_t seed = 11) {
  McOptions mc;
  mc.min_trials = trials;
  mc.max_trials = trials;
  mc.seed = seed;
  return mc;
}

TEST(EstimateCoverTime, ExactOnK2) {
  const Graph g = make_path(2);
  const auto result = estimate_cover_time(g, 0, quick_mc(32));
  EXPECT_DOUBLE_EQ(result.ci.mean, 1.0);
  EXPECT_DOUBLE_EQ(result.ci.half_width, 0.0);
}

TEST(EstimateCoverTime, MatchesExactOracleOnCycle) {
  const Vertex n = 9;
  const Graph g = make_cycle(n);
  const auto result = estimate_cover_time(g, 0, quick_mc(3000));
  const double exact = cycle_cover_time(n);  // 36
  // 3000 trials: CI should comfortably contain the exact value.
  EXPECT_NEAR(result.ci.mean, exact, 4.0 * result.ci.half_width + 1e-9);
}

TEST(EstimateKCoverTime, MatchesExactKOracleOnTriangle) {
  const Graph g = make_cycle(3);
  const auto result = estimate_k_cover_time(g, 0, 2, quick_mc(4000));
  EXPECT_NEAR(result.ci.mean, 5.0 / 3.0, 4.0 * result.ci.half_width + 1e-9);
}

TEST(EstimateKCoverTime, MatchesExactKOracleOnK4) {
  const Graph g = make_complete(4);
  const std::vector<Vertex> starts = {0, 0};
  const double exact = exact_k_cover_time(g, starts);
  const auto result = estimate_k_cover_time(g, 0, 2, quick_mc(4000));
  EXPECT_NEAR(result.ci.mean, exact, 4.0 * result.ci.half_width + 1e-9);
}

TEST(EstimateMultiCoverTime, DistinctStartsMatchExactOracle) {
  const Graph g = make_cycle(5);
  const std::vector<Vertex> starts = {0, 2};
  const double exact = exact_k_cover_time(g, starts);
  const auto result = estimate_multi_cover_time(g, starts, quick_mc(4000));
  EXPECT_NEAR(result.ci.mean, exact, 4.0 * result.ci.half_width + 1e-9);
}

TEST(EstimateHittingTime, MatchesExactOnCycle) {
  const Vertex n = 11;
  const Graph g = make_cycle(n);
  const auto result = estimate_hitting_time(g, 0, 3, quick_mc(4000));
  EXPECT_NEAR(result.ci.mean, cycle_hitting_time(n, 3),
              4.0 * result.ci.half_width + 1e-9);
}

TEST(EstimateSpeedup, KOneIsExactlyOne) {
  const Graph g = make_cycle(9);
  const auto s = estimate_speedup(g, 0, 1, quick_mc(64));
  EXPECT_DOUBLE_EQ(s.speedup, 1.0);
  EXPECT_DOUBLE_EQ(s.half_width, 0.0);
}

TEST(EstimateSpeedup, CliqueNearLinear) {
  const Graph g = make_complete(64);
  const auto s = estimate_speedup(g, 0, 8, quick_mc(800));
  EXPECT_GT(s.speedup, 5.0);
  EXPECT_LT(s.speedup, 11.0);
}

TEST(EstimateSpeedupCurve, ReusesBaseline) {
  const Graph g = make_cycle(15);
  const std::vector<unsigned> ks = {1, 2, 4};
  const auto curve = estimate_speedup_curve(g, 0, ks, quick_mc(300));
  ASSERT_EQ(curve.size(), 3u);
  for (const auto& point : curve) {
    EXPECT_DOUBLE_EQ(point.single.ci.mean, curve[0].single.ci.mean);
  }
  EXPECT_EQ(curve[0].k, 1u);
  EXPECT_DOUBLE_EQ(curve[0].speedup, 1.0);
}

TEST(EstimateSpeedupCurve, MonotoneOnCycle) {
  const Graph g = make_cycle(21);
  const std::vector<unsigned> ks = {1, 4, 16};
  const auto curve = estimate_speedup_curve(g, 0, ks, quick_mc(600));
  EXPECT_LT(curve[0].speedup, curve[1].speedup);
  EXPECT_LT(curve[1].speedup, curve[2].speedup);
}

TEST(CombineSpeedup, ErrorPropagation) {
  McResult single;
  single.stats.add(99.0);
  single.stats.add(101.0);
  single.ci = mean_confidence_interval(single.stats);
  McResult multi;
  multi.stats.add(49.0);
  multi.stats.add(51.0);
  multi.ci = mean_confidence_interval(multi.stats);
  const auto s = combine_speedup(4, single, multi);
  EXPECT_EQ(s.k, 4u);
  EXPECT_DOUBLE_EQ(s.speedup, 2.0);
  const double rel1 = single.ci.half_width / 100.0;
  const double rel2 = multi.ci.half_width / 50.0;
  EXPECT_NEAR(s.half_width, 2.0 * std::sqrt(rel1 * rel1 + rel2 * rel2), 1e-12);
}

TEST(Estimators, DeterministicAcrossRuns) {
  const Graph g = make_cycle(11);
  const auto a = estimate_cover_time(g, 0, quick_mc(100, 42));
  const auto b = estimate_cover_time(g, 0, quick_mc(100, 42));
  EXPECT_DOUBLE_EQ(a.ci.mean, b.ci.mean);
}

TEST(Estimators, CensoredSamplesReported) {
  const Graph g = make_cycle(51);
  CoverOptions cover;
  cover.step_cap = 3;
  const auto result = estimate_cover_time(g, 0, quick_mc(50), cover);
  EXPECT_EQ(result.censored, 50u);
  EXPECT_DOUBLE_EQ(result.ci.mean, 3.0);
}

}  // namespace
}  // namespace manywalks
