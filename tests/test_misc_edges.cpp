// Edge cases and less-traveled paths across modules.
#include <gtest/gtest.h>

#include <sstream>

#include "core/families.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "linalg/markov.hpp"
#include "mc/estimators.hpp"
#include "util/timer.hpp"
#include "walk/cover.hpp"

namespace manywalks {
namespace {

TEST(MiscGraph, FromCsrCountsLoops) {
  // One loop arc at vertex 0 plus edge 0-1.
  const Graph g = Graph::from_csr({0, 2, 3}, {0, 1, 0}, true);
  EXPECT_EQ(g.num_loops(), 1u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(0), 2u);
}

TEST(MiscGraph, BuilderReportsArcCount) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  EXPECT_EQ(b.num_arcs_added(), 2u);
  b.add_edge(2, 2);
  EXPECT_EQ(b.num_arcs_added(), 3u);  // loop adds a single arc
  EXPECT_EQ(b.num_vertices(), 4u);
}

TEST(MiscGraph, DescribeMentionsLoops) {
  GraphBuilder b(2);
  b.add_edge(0, 0).add_edge(0, 1);
  GraphBuilder::BuildOptions options;
  options.loops = GraphBuilder::LoopPolicy::kKeep;
  const Graph g = b.build(options);
  EXPECT_NE(describe(g).find("loops=1"), std::string::npos);
}

TEST(MiscGraph, MargulisSideTwoIsWalkable) {
  const Graph g = make_margulis_expander(2);
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_TRUE(g.is_regular());
  Rng rng(1);
  const auto sample = sample_cover_time(g, 0, rng);
  EXPECT_TRUE(sample.covered);
}

TEST(MiscFamilies, LargeTargetRoundsSensibly) {
  const auto hyper = make_family_instance(GraphFamily::kHypercube, 5000);
  EXPECT_EQ(hyper.graph.num_vertices(), 4096u);
  const auto grid = make_family_instance(GraphFamily::kGrid2d, 5000, 2);
  EXPECT_EQ(grid.graph.num_vertices(), 71u * 71u);
}

TEST(MiscMarkov, EvolveRejectsBadArguments) {
  const Graph g = make_cycle(4);
  std::vector<double> p(4, 0.25);
  std::vector<double> out;
  EXPECT_THROW(evolve_distribution(g, p, p), std::invalid_argument);
  EXPECT_THROW(evolve_distribution(g, p, out, 1.0), std::invalid_argument);
  std::vector<double> wrong(3, 0.0);
  EXPECT_THROW(evolve_distribution(g, wrong, out), std::invalid_argument);
}

TEST(MiscMarkov, MixingReportsWorstSource) {
  // The star mixes slowest from a leaf (lazy chain); from the hub the
  // distribution is closer to stationary after one step.
  const Graph g = make_star(16);
  MixingOptions options;
  options.laziness = 0.5;
  options.max_steps = 100000;
  const auto result = mixing_time(g, options);
  ASSERT_TRUE(result.converged);
  EXPECT_NE(result.worst_source, 0u);  // some leaf, not the hub
}

TEST(MiscWalk, LazyKWalkCoversEventually) {
  const Graph g = make_cycle(9);
  CoverOptions options;
  options.laziness = 0.6;
  Rng rng(5);
  const auto sample = sample_k_cover_time(g, 0, 3, rng, options);
  EXPECT_TRUE(sample.covered);
  EXPECT_GT(sample.steps, 0u);
}

TEST(MiscWalk, LazyHittingIsSlower) {
  const Graph g = make_cycle(21);
  Rng rng(6);
  double plain_total = 0;
  double lazy_total = 0;
  const std::vector<Vertex> from = {0};
  const std::vector<Vertex> to = {10};
  CoverOptions lazy;
  lazy.laziness = 0.5;
  for (int i = 0; i < 400; ++i) {
    plain_total +=
        static_cast<double>(sample_hitting_time(g, from, to, rng).steps);
    lazy_total +=
        static_cast<double>(sample_hitting_time(g, from, to, rng, lazy).steps);
  }
  EXPECT_GT(lazy_total, 1.5 * plain_total);
}

TEST(MiscWalk, PartialCoverTinyFractionIsZeroRounds) {
  // A fraction that rounds to covering just the start: 0 rounds.
  const Graph g = make_cycle(100);
  const std::vector<Vertex> starts = {0};
  Rng rng(7);
  const auto sample = sample_partial_cover_time(g, starts, 0.01, rng);
  EXPECT_TRUE(sample.covered);
  EXPECT_EQ(sample.steps, 0u);
}

TEST(MiscUtil, StopwatchAdvances) {
  Stopwatch watch;
  double x = 0.0;
  for (int i = 0; i < 100000; ++i) x += static_cast<double>(i) * 1e-9;
  EXPECT_GE(watch.seconds() + x * 0.0, 0.0);
  watch.reset();
  EXPECT_GE(watch.milliseconds(), 0.0);
}

TEST(MiscEstimates, ConfidenceIntervalCountsTrials) {
  const Graph g = make_cycle(9);
  McOptions mc;
  mc.min_trials = 37;
  mc.max_trials = 37;
  mc.seed = 8;
  const auto r = estimate_cover_time(g, 0, mc);
  EXPECT_EQ(r.ci.count, 37u);
  EXPECT_EQ(r.stats.count(), 37u);
}

}  // namespace
}  // namespace manywalks
