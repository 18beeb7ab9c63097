#include "walk/cover.hpp"
#include "walk/engine.hpp"
#include "walk/visit_tracker.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "graph/generators.hpp"

namespace manywalks {
namespace {

TEST(WordVisitTrackerTest, TracksAndResets) {
  WordVisitTracker t(4);
  EXPECT_EQ(t.num_visited(), 0u);
  EXPECT_TRUE(t.visit(2));
  EXPECT_FALSE(t.visit(2));
  EXPECT_TRUE(t.visited(2));
  EXPECT_FALSE(t.visited(1));
  EXPECT_EQ(t.num_visited(), 1u);
  t.visit(0);
  t.visit(1);
  t.visit(3);
  EXPECT_TRUE(t.all_visited());
  t.reset();
  EXPECT_EQ(t.num_visited(), 0u);
  EXPECT_FALSE(t.visited(2));
}

/// Where each of `tokens` copies of a walker at `start` lands after one
/// lane-engine round.
std::vector<int> one_round_landings(const Graph& g, Vertex start, int tokens,
                                    Rng& rng, double laziness = 0.0) {
  WalkEngine engine(g);
  const std::vector<Vertex> starts(static_cast<std::size_t>(tokens), start);
  engine.reset(starts);
  engine.run_for_steps(1, rng, laziness);
  std::vector<int> counts(g.num_vertices(), 0);
  for (const Vertex v : engine.tokens()) ++counts[v];
  return counts;
}

TEST(LaneStep, StaysOnNeighbors) {
  const Graph g = make_cycle(6);
  Rng rng(1);
  WalkEngine engine(g);
  const std::vector<Vertex> starts = {0};
  engine.reset(starts);
  for (int i = 0; i < 1000; ++i) {
    const Vertex v = engine.tokens()[0];
    engine.run_for_steps(1, rng);
    EXPECT_TRUE(g.has_edge(v, engine.tokens()[0]));
  }
}

TEST(LaneStep, UniformOverNeighbors) {
  const Graph g = make_star(5);  // hub 0 with 4 leaves
  Rng rng(2);
  const int trials = 40000;
  const auto counts = one_round_landings(g, 0, trials, rng);
  EXPECT_EQ(counts[0], 0);
  for (Vertex leaf = 1; leaf < 5; ++leaf) {
    EXPECT_NEAR(static_cast<double>(counts[leaf]) / trials, 0.25, 0.02);
  }
}

TEST(LaneStep, SelfLoopProbability) {
  const Graph g = make_complete(4, /*with_self_loops=*/true);
  Rng rng(3);
  const int trials = 40000;
  const auto counts = one_round_landings(g, 0, trials, rng);
  EXPECT_NEAR(static_cast<double>(counts[0]) / trials, 0.25, 0.02);
}

TEST(LaneStepLazy, ZeroLazinessNeverStays) {
  const Graph g = make_cycle(5);
  Rng rng(4);
  EXPECT_EQ(one_round_landings(g, 0, 200, rng, 0.0)[0], 0);
}

TEST(LaneStepLazy, LazinessFrequency) {
  const Graph g = make_cycle(5);
  Rng rng(5);
  const int trials = 40000;
  const auto counts = one_round_landings(g, 0, trials, rng, 0.3);
  EXPECT_NEAR(static_cast<double>(counts[0]) / trials, 0.3, 0.02);
}

TEST(SampleCoverTime, TwoVerticesAlwaysOneStep) {
  const Graph g = make_path(2);
  Rng rng(6);
  for (int i = 0; i < 50; ++i) {
    const auto s = sample_cover_time(g, 0, rng);
    EXPECT_TRUE(s.covered);
    EXPECT_EQ(s.steps, 1u);
  }
}

TEST(SampleCoverTime, DeterministicGivenRng) {
  const Graph g = make_cycle(9);
  Rng a(7);
  Rng b(7);
  const auto s1 = sample_cover_time(g, 0, a);
  const auto s2 = sample_cover_time(g, 0, b);
  EXPECT_EQ(s1.steps, s2.steps);
}

TEST(SampleCoverTime, CapCensorsSample) {
  const Graph g = make_cycle(101);
  Rng rng(8);
  CoverOptions options;
  options.step_cap = 10;  // far below the ~5000-step cover time
  const auto s = sample_cover_time(g, 0, rng, options);
  EXPECT_FALSE(s.covered);
  EXPECT_EQ(s.steps, 10u);
}

TEST(SampleCoverTime, SingleVertexGraphIsZero) {
  const Graph g = make_balanced_tree(2, 0);  // one vertex, no edges
  Rng rng(9);
  EXPECT_THROW(sample_cover_time(g, 0, rng), std::invalid_argument);
}

TEST(SampleKCoverTime, AllVerticesAsStartsCoverInstantly) {
  const Graph g = make_cycle(4);
  const std::vector<Vertex> starts = {0, 1, 2, 3};
  Rng rng(10);
  const auto s = sample_multi_cover_time(g, starts, rng);
  EXPECT_TRUE(s.covered);
  EXPECT_EQ(s.steps, 0u);
}

TEST(SampleKCoverTime, TokensFasterOnAverage) {
  const Graph g = make_cycle(31);
  Rng rng(11);
  double single_total = 0;
  double multi_total = 0;
  const int trials = 200;
  for (int i = 0; i < trials; ++i) {
    single_total += static_cast<double>(sample_cover_time(g, 0, rng).steps);
    multi_total +=
        static_cast<double>(sample_k_cover_time(g, 0, 4, rng).steps);
  }
  EXPECT_LT(multi_total, single_total);
}

TEST(SampleKCoverTime, RejectsEmptyStartList) {
  const Graph g = make_cycle(4);
  Rng rng(12);
  const std::vector<Vertex> none;
  EXPECT_THROW(sample_multi_cover_time(g, none, rng), std::invalid_argument);
}

TEST(SamplePartialCoverTime, FullFractionMatchesCover) {
  const Graph g = make_cycle(9);
  const std::vector<Vertex> starts = {0};
  Rng a(13);
  Rng b(13);
  const auto full = sample_partial_cover_time(g, starts, 1.0, a);
  const auto cover = sample_cover_time(g, 0, b);
  EXPECT_EQ(full.steps, cover.steps);
}

TEST(SamplePartialCoverTime, SmallFractionIsFaster) {
  const Graph g = make_cycle(51);
  const std::vector<Vertex> starts = {0};
  Rng rng(14);
  double half_total = 0;
  double full_total = 0;
  for (int i = 0; i < 100; ++i) {
    half_total += static_cast<double>(
        sample_partial_cover_time(g, starts, 0.5, rng).steps);
    full_total += static_cast<double>(sample_cover_time(g, 0, rng).steps);
  }
  EXPECT_LT(half_total, full_total * 0.6);
}

TEST(CoverageCurveTest, MonotoneAndBounded) {
  const Graph g = make_grid_2d(5);
  const std::vector<Vertex> starts = {0, 0};
  Rng rng(15);
  const auto curve = sample_coverage_curve(g, starts, 500, 50, rng);
  ASSERT_GE(curve.times.size(), 2u);
  EXPECT_EQ(curve.times.front(), 0u);
  EXPECT_EQ(curve.visited.front(), 1u);  // both tokens on the same vertex
  for (std::size_t i = 1; i < curve.visited.size(); ++i) {
    EXPECT_GE(curve.visited[i], curve.visited[i - 1]);
    EXPECT_LE(curve.visited[i], g.num_vertices());
  }
}

TEST(CoverageCurveTest, HonorsStepCap) {
  const Graph g = make_grid_2d(5);
  const std::vector<Vertex> starts = {0};
  CoverOptions options;
  options.step_cap = 120;
  Rng rng(20);
  const auto curve = sample_coverage_curve(g, starts, 500, 50, rng, options);
  EXPECT_TRUE(curve.truncated);
  EXPECT_EQ(curve.times.back(), 120u);  // stopped at the cap, not at 500
  // Record points: t=0, the record_every multiples, and the cap itself.
  const std::vector<std::uint64_t> expected_times = {0, 50, 100, 120};
  EXPECT_EQ(curve.times, expected_times);

  // An identical run whose cap is not binding is not truncated and consumes
  // the same RNG stream up to the cap.
  Rng rng2(20);
  const auto full = sample_coverage_curve(g, starts, 500, 50, rng2);
  EXPECT_FALSE(full.truncated);
  EXPECT_EQ(full.times.back(), 500u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(full.visited[i], curve.visited[i]);
  }
}

TEST(VisitCounts, SumEqualsStepsPlusOne) {
  const Graph g = make_cycle(7);
  Rng rng(16);
  const auto counts = sample_visit_counts(g, 3, 1000, rng);
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  EXPECT_EQ(total, 1001u);
  EXPECT_GE(counts[3], 1u);
}

TEST(VisitCounts, LongRunApproachesStationary) {
  const Graph g = make_star(5);  // pi(hub) = 1/2
  Rng rng(17);
  const std::uint64_t steps = 200000;
  const auto counts = sample_visit_counts(g, 0, steps, rng);
  EXPECT_NEAR(static_cast<double>(counts[0]) / static_cast<double>(steps),
              0.5, 0.02);
}

TEST(SampleHittingTime, SameVertexIsZero) {
  const Graph g = make_cycle(5);
  const std::vector<Vertex> at = {2};
  Rng rng(18);
  const auto s = sample_hitting_time(g, at, at, rng);
  EXPECT_TRUE(s.covered);
  EXPECT_EQ(s.steps, 0u);
}

TEST(SampleHittingTime, NeighborOnK2IsOneStep) {
  const Graph g = make_path(2);
  const std::vector<Vertex> from = {0};
  const std::vector<Vertex> to = {1};
  Rng rng(19);
  for (int i = 0; i < 20; ++i) {
    const auto s = sample_hitting_time(g, from, to, rng);
    EXPECT_EQ(s.steps, 1u);
  }
}

TEST(SampleHittingTime, CapCensors) {
  const Graph g = make_cycle(101);
  const std::vector<Vertex> from = {0};
  const std::vector<Vertex> to = {50};
  Rng rng(20);
  CoverOptions options;
  options.step_cap = 5;
  const auto s = sample_hitting_time(g, from, to, rng, options);
  EXPECT_FALSE(s.covered);
  EXPECT_EQ(s.steps, 5u);
}

TEST(SampleMultiHittingTime, TokenOnTargetIsZero) {
  const Graph g = make_cycle(6);
  const std::vector<Vertex> starts = {0, 3};
  const std::vector<Vertex> target = {3};
  Rng rng(21);
  const auto s = sample_hitting_time(g, starts, target, rng);
  EXPECT_TRUE(s.covered);
  EXPECT_EQ(s.steps, 0u);
}

TEST(SampleMultiHittingTime, MoreTokensHitFaster) {
  const Graph g = make_cycle(41);
  Rng rng(22);
  double one_total = 0;
  double many_total = 0;
  const std::vector<Vertex> one = {0};
  const std::vector<Vertex> many = {0, 0, 0, 0, 0, 0, 0, 0};
  const std::vector<Vertex> target = {20};
  for (int i = 0; i < 150; ++i) {
    one_total +=
        static_cast<double>(sample_hitting_time(g, one, target, rng).steps);
    many_total +=
        static_cast<double>(sample_hitting_time(g, many, target, rng).steps);
  }
  EXPECT_LT(many_total, one_total);
}

}  // namespace
}  // namespace manywalks
