#include "walk/sampling.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/generators.hpp"
#include "walk/hitting.hpp"

namespace manywalks {
namespace {

TEST(StationarySampling, FrequencyProportionalToDegree) {
  // Star: pi(hub) = 1/2, pi(leaf) = 1/(2(n-1)).
  const Graph g = make_star(5);
  Rng rng(1);
  int hub_hits = 0;
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) {
    if (sample_stationary_vertex(g, rng) == 0) ++hub_hits;
  }
  EXPECT_NEAR(static_cast<double>(hub_hits) / trials, 0.5, 0.02);
}

TEST(StationarySampling, UniformOnRegularGraphs) {
  const Graph g = make_cycle(8);
  Rng rng(2);
  std::vector<int> counts(8, 0);
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) ++counts[sample_stationary_vertex(g, rng)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.125, 0.015);
  }
}

TEST(StationarySampling, HandlesLoops) {
  // Vertex with the loop has degree 2 vs 1: probabilities 1/2, 1/4, 1/4.
  GraphBuilder b(3);
  b.add_edge(0, 1).add_edge(0, 2).add_edge(0, 0);
  GraphBuilder::BuildOptions options;
  options.loops = GraphBuilder::LoopPolicy::kKeep;
  const Graph g = b.build(options);
  Rng rng(3);
  int v0 = 0;
  const int trials = 40000;
  for (int i = 0; i < trials; ++i) {
    if (sample_stationary_vertex(g, rng) == 0) ++v0;
  }
  EXPECT_NEAR(static_cast<double>(v0) / trials, 0.6, 0.02);  // 3/5 arcs
}

TEST(StationarySampling, PlacementsFillEveryStartSlot) {
  const Graph g = make_cycle(6);
  Rng rng(4);
  std::vector<Vertex> seven(7, kInvalidVertex);
  stationary_starts(g.offsets())(rng, seven);
  for (Vertex v : seven) EXPECT_LT(v, 6u);
  std::vector<Vertex> three(3, kInvalidVertex);
  uniform_starts(g.num_vertices())(rng, three);
  for (Vertex v : three) EXPECT_LT(v, 6u);
  same_vertex_starts(2)(rng, three);
  EXPECT_EQ(three, (std::vector<Vertex>{2, 2, 2}));
  const std::vector<Vertex> given = {5, 0, 3};
  fixed_starts(given)(rng, three);
  EXPECT_EQ(three, given);
}

TEST(StationarySampling, PlacementDrawsMatchTheVertexSampler) {
  // A drawn placement consumes the trial stream exactly like k calls of
  // sample_stationary_vertex — the order the cover funnel relies on.
  const Graph g = make_barbell(11);
  Rng a(8), b(8);
  std::vector<Vertex> starts(5);
  stationary_starts(g.offsets())(a, starts);
  for (Vertex v : starts) EXPECT_EQ(v, sample_stationary_vertex(g, b));
  EXPECT_EQ(a.next(), b.next());
}

TEST(UniformSampling, CoversAllVertices) {
  const Graph g = make_cycle(5);
  Rng rng(5);
  std::set<Vertex> seen;
  std::vector<Vertex> starts(2);
  for (int i = 0; i < 500; ++i) {
    uniform_starts(g.num_vertices())(rng, starts);
    seen.insert(starts.begin(), starts.end());
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(SpreadStarts, FirstIsSeed) {
  const Graph g = make_cycle(16);
  const auto starts = spread_starts(g, 4, 3);
  ASSERT_EQ(starts.size(), 4u);
  EXPECT_EQ(starts[0], 3u);
}

TEST(SpreadStarts, DistinctOnLargeEnoughGraph) {
  const Graph g = make_grid_2d(8, GridTopology::kOpen);
  const auto starts = spread_starts(g, 6, 0);
  const std::set<Vertex> unique(starts.begin(), starts.end());
  EXPECT_EQ(unique.size(), 6u);
}

TEST(SpreadStarts, SecondCenterIsAntipodalOnCycle) {
  const Graph g = make_cycle(20);
  const auto starts = spread_starts(g, 2, 0);
  EXPECT_EQ(starts[1], 10u);
}

TEST(SpreadStarts, PathPicksBothEnds) {
  const Graph g = make_path(30);
  const auto starts = spread_starts(g, 2, 0);
  EXPECT_EQ(starts[1], 29u);
}

TEST(SpreadStarts, PairwiseDistancesAreLarge) {
  // Greedy k-center on the 2-D torus: min pairwise distance should be a
  // decent fraction of the diameter.
  const Graph g = make_grid_2d(12);
  const auto starts = spread_starts(g, 4, 0);
  std::uint32_t min_pairwise = kUnreachable;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    const auto dist = bfs_distances(g, starts[i]);
    for (std::size_t j = 0; j < starts.size(); ++j) {
      if (i != j) min_pairwise = std::min(min_pairwise, dist[starts[j]]);
    }
  }
  EXPECT_GE(min_pairwise, 6u);  // diameter is 12
}

TEST(SpreadStarts, MoreStartsThanVerticesWraps) {
  const Graph g = make_cycle(3);
  const auto starts = spread_starts(g, 7, 0);
  EXPECT_EQ(starts.size(), 7u);
  for (Vertex v : starts) EXPECT_LT(v, 3u);
}

TEST(SpreadStarts, WrapAroundReusesTheSeedDeterministically) {
  // Once every vertex is a center all distances are 0, so each further
  // start falls back to starts[i % size] — which is always the seed. The
  // exact sequence is part of the deterministic contract.
  const Graph g = make_cycle(3);
  const auto starts = spread_starts(g, 7, 0);
  const std::vector<Vertex> expected = {0, 1, 2, 0, 0, 0, 0};
  EXPECT_EQ(starts, expected);

  // Same wrap pattern from a different seed vertex.
  const auto from_two = spread_starts(g, 5, 2);
  EXPECT_EQ(from_two[0], 2u);
  const std::set<Vertex> first_three(from_two.begin(), from_two.begin() + 3);
  EXPECT_EQ(first_three.size(), 3u);
  EXPECT_EQ(from_two[3], 2u);
  EXPECT_EQ(from_two[4], 2u);
}

TEST(SpreadStarts, DisconnectedGraphStaysInSeedComponent) {
  // Two disjoint triangles {0,1,2} and {3,4,5}: bfs_distances reports
  // kUnreachable for the far component, and the greedy selection must skip
  // those vertices instead of choosing an unreachable (infinite-distance)
  // center.
  GraphBuilder b(6);
  b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 0);
  b.add_edge(3, 4).add_edge(4, 5).add_edge(5, 3);
  const Graph g = b.build();

  const auto starts = spread_starts(g, 4, 0);
  ASSERT_EQ(starts.size(), 4u);
  for (Vertex v : starts) EXPECT_LT(v, 3u) << "left component only";

  const auto right = spread_starts(g, 4, 4);
  for (Vertex v : right) {
    EXPECT_GE(v, 3u) << "right component only";
    EXPECT_LT(v, 6u);
  }
}

TEST(HittingToSet, StartInsideSetIsZero) {
  const Graph g = make_cycle(6);
  std::vector<bool> target(6, false);
  target[2] = true;
  const std::vector<Vertex> starts = {2};
  Rng rng(6);
  const auto s = sample_multi_hitting_to_set(g, starts, target, rng);
  EXPECT_TRUE(s.hit);
  EXPECT_EQ(s.steps, 0u);
}

TEST(HittingToSet, SingletonMatchesPlainHitting) {
  const Graph g = make_cycle(21);
  std::vector<bool> target(21, false);
  target[10] = true;
  const std::vector<Vertex> starts = {0};
  double set_total = 0;
  double plain_total = 0;
  Rng rng(7);
  for (int i = 0; i < 400; ++i) {
    set_total += static_cast<double>(
        sample_multi_hitting_to_set(g, starts, target, rng).steps);
    plain_total +=
        static_cast<double>(sample_hitting_time(g, 0, 10, rng).steps);
  }
  EXPECT_NEAR(set_total / plain_total, 1.0, 0.25);
}

TEST(HittingToSet, BiggerSetIsFaster) {
  const Graph g = make_cycle(41);
  std::vector<bool> small(41, false);
  small[20] = true;
  std::vector<bool> large = small;
  large[10] = large[30] = true;
  const std::vector<Vertex> starts = {0, 0};
  Rng rng(8);
  double small_total = 0;
  double large_total = 0;
  for (int i = 0; i < 300; ++i) {
    small_total += static_cast<double>(
        sample_multi_hitting_to_set(g, starts, small, rng).steps);
    large_total += static_cast<double>(
        sample_multi_hitting_to_set(g, starts, large, rng).steps);
  }
  EXPECT_LT(large_total, small_total);
}

TEST(HittingToSet, MaskSizeMismatchThrows) {
  const Graph g = make_cycle(5);
  const std::vector<Vertex> starts = {0};
  std::vector<bool> wrong(4, false);
  Rng rng(9);
  EXPECT_THROW(sample_multi_hitting_to_set(g, starts, wrong, rng),
               std::invalid_argument);
}

TEST(HittingToSet, CapCensors) {
  const Graph g = make_cycle(101);
  std::vector<bool> target(101, false);
  target[50] = true;
  const std::vector<Vertex> starts = {0};
  HitOptions options;
  options.step_cap = 3;
  Rng rng(10);
  const auto s = sample_multi_hitting_to_set(g, starts, target, rng, options);
  EXPECT_FALSE(s.hit);
  EXPECT_EQ(s.steps, 3u);
}

}  // namespace
}  // namespace manywalks
