// Proposition 23 (binomial band sandwich) and Lemma 19 (expander visit
// probability) — the paper's two standalone probabilistic lemmas, checked
// against exact binomial arithmetic and Monte-Carlo walks respectively.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "graph/generators.hpp"
#include "linalg/spectral.hpp"
#include "theory/bounds.hpp"
#include "util/rng.hpp"
#include "walk/cover.hpp"

namespace manywalks {
namespace {

TEST(BinomialBand, ExactProbabilityIsSane) {
  // Band [(c-1)√n, c√n] with c = 2: a thin right-tail slice.
  const double p = binomial_centered_band_probability(1024, 2.0);
  EXPECT_GT(p, 0.0);
  EXPECT_LT(p, 0.5);
}

TEST(BinomialBand, MatchesNormalApproximation) {
  // For large n the band probability approaches
  // Phi(2c) - Phi(2(c-1)) (X - n/2 ~ Normal(0, n/4)).
  const double c = 2.0;
  const double p = binomial_centered_band_probability(1'000'000, c);
  const auto phi = [](double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); };
  const double normal = phi(2.0 * c) - phi(2.0 * (c - 1.0));
  EXPECT_NEAR(p, normal, 0.1 * normal);
}

class Proposition23Sweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, double>> {};

TEST_P(Proposition23Sweep, SandwichHolds) {
  const auto [n, c] = GetParam();
  ASSERT_GE(static_cast<double>(n), 16.0 * c * c);
  ASSERT_EQ(n % 2, 0u);
  const double p = binomial_centered_band_probability(n, c);
  EXPECT_GE(p, proposition23_lower(c)) << "n=" << n << " c=" << c;
  EXPECT_LE(p, proposition23_upper(c)) << "n=" << n << " c=" << c;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Proposition23Sweep,
    ::testing::Combine(::testing::Values<std::uint64_t>(256, 1024, 4096,
                                                        65536),
                       ::testing::Values(2.0, 2.5, 3.0)));

TEST(BinomialBand, Validation) {
  EXPECT_THROW(proposition23_lower(1.0), std::invalid_argument);
  EXPECT_THROW(binomial_centered_band_probability(0, 2.0),
               std::invalid_argument);
}

TEST(Lemma19, BoundFieldsAreConsistent) {
  const auto bound = lemma19_visit_bound(256, 8.0, 5.0 * std::sqrt(2.0));
  EXPECT_GT(bound.s, 0.0);
  EXPECT_GT(bound.b, 0.0);
  EXPECT_DOUBLE_EQ(bound.walk_length, 2.0 * bound.s);
  EXPECT_GT(bound.probability, 0.0);
  EXPECT_LT(bound.probability, 1.0);
  EXPECT_THROW(lemma19_visit_bound(256, 8.0, 9.0), std::invalid_argument);
}

TEST(Lemma19, VisitProbabilityHoldsOnCertifiedMargulis) {
  // Measure Pr[a walk of length 2s from u visits v] on a certified
  // (n, 8, λ) Margulis expander and check Lemma 19's lower bound.
  const Graph g = make_margulis_expander(16);  // n = 256
  const auto cert = certify_expander(g);
  ASSERT_TRUE(cert.converged);
  const auto bound =
      lemma19_visit_bound(g.num_vertices(), 8.0, cert.lambda);
  const auto walk_len = static_cast<std::uint64_t>(std::ceil(bound.walk_length));

  Rng rng(1919);
  const std::vector<Vertex> u = {0};
  // Arbitrary distant target.
  const std::vector<Vertex> v = {g.num_vertices() / 2 + 7};
  CoverOptions within;
  within.step_cap = walk_len;
  const int trials = 60000;
  int hits = 0;
  for (int i = 0; i < trials; ++i) {
    if (sample_hitting_time(g, u, v, rng, within).covered) ++hits;
  }
  const double measured = static_cast<double>(hits) / trials;
  // Allow 3 standard errors of slack below the point estimate.
  const double se = std::sqrt(measured * (1.0 - measured) / trials);
  EXPECT_GE(measured + 3.0 * se, bound.probability)
      << "measured " << measured << " vs bound " << bound.probability;
}

TEST(Lemma19, PerStepVisitRateImprovesWithSmallerLambda) {
  // The raw bound is NOT monotone in λ (a smaller λ also shortens the
  // 2s-step sub-walk), but the guaranteed visit probability PER STEP,
  // probability / (2s) = 1 / (2(2n + 4s + 4bn)), strictly improves as the
  // expander gets better.
  const auto strong = lemma19_visit_bound(256, 8.0, 3.0);
  const auto weak = lemma19_visit_bound(256, 8.0, 7.0);
  EXPECT_GT(strong.probability / strong.walk_length,
            weak.probability / weak.walk_length);
  // A better expander needs a shorter sub-walk.
  EXPECT_LT(strong.walk_length, weak.walk_length);
}

}  // namespace
}  // namespace manywalks
