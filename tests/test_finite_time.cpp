#include "theory/finite_time.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "graph/generators.hpp"
#include "theory/exact.hpp"
#include "util/rng.hpp"
#include "walk/cover.hpp"

namespace manywalks {
namespace {

TEST(VisitProbabilityWithin, ZeroStepsOnlyTargetVisited) {
  const Graph g = make_cycle(5);
  const auto p = visit_probability_within(g, 2, 0);
  for (Vertex u = 0; u < 5; ++u) {
    EXPECT_DOUBLE_EQ(p[u], u == 2 ? 1.0 : 0.0);
  }
}

TEST(VisitProbabilityWithin, OneStepIsTransitionProbability) {
  const Graph g = make_star(5);  // hub 0, leaves 1..4
  const auto to_hub = visit_probability_within(g, 0, 1);
  EXPECT_DOUBLE_EQ(to_hub[1], 1.0);  // leaf -> hub deterministically
  const auto to_leaf = visit_probability_within(g, 1, 1);
  EXPECT_NEAR(to_leaf[0], 0.25, 1e-12);   // hub -> that leaf w.p. 1/4
  EXPECT_NEAR(to_leaf[2], 0.0, 1e-12);    // leaf -> other leaf impossible in 1
}

TEST(VisitProbabilityWithin, MonotoneInT) {
  const Graph g = make_cycle(9);
  const auto p2 = visit_probability_within(g, 4, 2);
  const auto p8 = visit_probability_within(g, 4, 8);
  for (Vertex u = 0; u < 9; ++u) {
    EXPECT_LE(p2[u], p8[u] + 1e-12);
  }
}

TEST(VisitProbabilityWithin, ConvergesToOneOnConnectedGraphs) {
  const Graph g = make_barbell(9);
  const auto p = visit_probability_within(g, 0, 100000);
  for (Vertex u = 0; u < 9; ++u) EXPECT_NEAR(p[u], 1.0, 1e-6);
}

TEST(VisitProbabilityWithin, MatchesMonteCarlo) {
  const Graph g = make_grid_2d(4, GridTopology::kOpen);
  const Vertex target = 15;
  const std::uint64_t t = 12;
  const auto exact = visit_probability_within(g, target, t);

  Rng rng(88);
  const std::vector<Vertex> from = {0};
  const std::vector<Vertex> to = {target};
  CoverOptions within;
  within.step_cap = t;
  const int trials = 40000;
  int hits = 0;
  for (int i = 0; i < trials; ++i) {
    if (sample_hitting_time(g, from, to, rng, within).covered) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, exact[0], 0.01);
}

TEST(VisitProbabilityWithin, MarkovBoundAtTwiceHmax) {
  // By Markov, a walk of length 2 h_max reaches any vertex with
  // probability >= 1/2 — the paper's Thm 14 step.
  for (const Graph& g : {make_cycle(11), make_star(8), make_barbell(9)}) {
    const double h_max = hitting_extremes(g).h_max;
    const auto t = static_cast<std::uint64_t>(std::ceil(2.0 * h_max));
    const PairVisitProbability worst = min_visit_probability_within(g, t);
    EXPECT_GE(worst.probability, 0.5) << describe(g);
  }
}

TEST(MinVisitProbabilityWithin, FindsTheHardPair) {
  // On the lollipop the hardest visit within a short budget is into the
  // far end of the stick.
  const Graph g = make_lollipop(10);
  const PairVisitProbability worst = min_visit_probability_within(g, 20);
  EXPECT_EQ(worst.to, 9u);
  EXPECT_LT(worst.probability, 0.5);
}

TEST(Lemma16Probability, FormulaAndClamping) {
  EXPECT_NEAR(lemma16_cover_probability(0.9, 0.5, 2, 3),
              0.9 * (1.0 - 2.0 * 0.125), 1e-12);
  // Large k with tiny ell can make the parenthesis negative: clamp to 0.
  EXPECT_DOUBLE_EQ(lemma16_cover_probability(0.9, 0.1, 100, 1), 0.0);
  EXPECT_DOUBLE_EQ(lemma16_cover_probability(1.0, 1.0, 5, 2), 1.0);
  EXPECT_THROW(lemma16_cover_probability(1.5, 0.5, 2, 2),
               std::invalid_argument);
}

TEST(Lemma16Probability, MeasuredKWalkDominatesBoundOnCycle) {
  // End-to-end miniature of bench/fig_lemma16 on the 17-cycle.
  const Graph g = make_cycle(17);
  const std::uint64_t t_c = 2 * 136;  // 2 * C(17) = 2 * (17·16/2)
  const double h_max = 8.0 * 9.0;     // floor(17/2)*ceil(17/2)
  const auto t_h = static_cast<std::uint64_t>(2.0 * h_max);
  const PairVisitProbability p_h = min_visit_probability_within(g, t_h);
  ASSERT_GE(p_h.probability, 0.5);

  // p_c: cover probability of a single walk within t_c.
  Rng rng(99);
  int covered = 0;
  const int trials = 4000;
  CoverOptions cap;
  cap.step_cap = t_c;
  for (int i = 0; i < trials; ++i) {
    if (sample_cover_time(g, 0, rng, cap).covered) ++covered;
  }
  const double p_c = static_cast<double>(covered) / trials;

  const unsigned k = 3;
  const unsigned ell = 3;
  const double bound = lemma16_cover_probability(p_c, p_h.probability, k, ell);
  const std::uint64_t length = t_c / k + ell * t_h;
  int k_covered = 0;
  CoverOptions k_cap;
  k_cap.step_cap = length;
  for (int i = 0; i < trials; ++i) {
    if (sample_k_cover_time(g, 0, k, rng, k_cap).covered) ++k_covered;
  }
  const double measured = static_cast<double>(k_covered) / trials;
  const double se = std::sqrt(measured * (1.0 - measured) / trials);
  EXPECT_GE(measured + 3.0 * se, bound);
}

}  // namespace
}  // namespace manywalks
