// Exact k-walk hitting-time oracle and its cross-check against the k-walk
// hitting sampler (the hunting and search quantity of the paper's §1).
#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "theory/exact.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "walk/cover.hpp"

namespace manywalks {
namespace {

TEST(ExactKHitting, KOneMatchesLinearSolve) {
  for (const Graph& g : {make_cycle(9), make_star(7), make_barbell(9)}) {
    const Vertex target = g.num_vertices() / 2;
    const auto h = hitting_times_to(g, target);
    for (Vertex u = 0; u < g.num_vertices(); u += 2) {
      const std::vector<Vertex> starts = {u};
      EXPECT_NEAR(exact_k_hitting_time(g, starts, target, 4096), h[u], 1e-7)
          << describe(g) << " u=" << u;
    }
  }
}

TEST(ExactKHitting, TokenOnTargetIsZero) {
  const Graph g = make_cycle(5);
  const std::vector<Vertex> starts = {0, 3};
  EXPECT_DOUBLE_EQ(exact_k_hitting_time(g, starts, 3), 0.0);
}

TEST(ExactKHitting, TriangleTwoTokensHandComputed) {
  // Two tokens at vertex 0 of C_3, target 1: per round each token hits 1
  // with probability 1/2 independently while both sit on the same
  // non-target vertex, so P[hit] = 3/4 per round: E = 4/3... except after
  // a miss both tokens are at {0,2}\{1} — possibly split. Compute by
  // oracle and check against first-step arithmetic:
  //   From (0,0): P(hit) = 3/4, else lands on (2,2) — symmetric to (0,0).
  //   E = 1 + (1/4) E  =>  E = 4/3.
  const Graph g = make_cycle(3);
  const std::vector<Vertex> starts = {0, 0};
  EXPECT_NEAR(exact_k_hitting_time(g, starts, 1), 4.0 / 3.0, 1e-10);
}

TEST(ExactKHitting, MoreTokensNeverSlower) {
  const Graph g = make_cycle(7);
  const Vertex target = 3;
  const std::vector<Vertex> one = {0};
  const std::vector<Vertex> two = {0, 0};
  const std::vector<Vertex> three = {0, 0, 0};
  const double h1 = exact_k_hitting_time(g, one, target);
  const double h2 = exact_k_hitting_time(g, two, target);
  const double h3 = exact_k_hitting_time(g, three, target, 4096);
  EXPECT_LT(h2, h1);
  EXPECT_LT(h3, h2);
}

TEST(ExactKHitting, IndependenceMakesSymmetricSplitsEquivalent) {
  // Unlike the cover time, the k-walk HITTING time depends only on each
  // token's marginal hitting distribution (tokens are independent and the
  // event is a minimum). On C_9 with target 4, starts {0,8} are both at
  // ring distance 4, so the split placement exactly equals the pack.
  const Graph g = make_cycle(9);
  const Vertex target = 4;
  const std::vector<Vertex> pack = {0, 0};
  const std::vector<Vertex> split = {0, 8};
  EXPECT_NEAR(exact_k_hitting_time(g, split, target),
              exact_k_hitting_time(g, pack, target), 1e-9);
}

TEST(ExactKHitting, CloserTokensHitFaster) {
  const Graph g = make_cycle(9);
  const Vertex target = 4;
  const std::vector<Vertex> far_pack = {0, 0};
  const std::vector<Vertex> close_split = {3, 5};  // distance 1 each
  EXPECT_LT(exact_k_hitting_time(g, close_split, target),
            exact_k_hitting_time(g, far_pack, target));
}

TEST(ExactKHitting, CoverTimeDoesDependOnSplitting) {
  // Contrast with the cover time, where splitting the pack DOES matter
  // (the union of trajectories, not a minimum, is what counts).
  const Graph g = make_cycle(9);
  const std::vector<Vertex> pack = {0, 0};
  const std::vector<Vertex> split = {0, 4};
  EXPECT_LT(exact_k_cover_time(g, split, 4096),
            exact_k_cover_time(g, pack, 4096));
}

TEST(ExactKHitting, MatchesMultiHittingSampler) {
  const Graph g = make_star(6);
  const std::vector<Vertex> starts = {1, 2};
  const Vertex target = 5;
  const std::vector<Vertex> targets = {target};
  const double exact = exact_k_hitting_time(g, starts, target, 4096);

  Rng rng(314);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) {
    stats.add(static_cast<double>(
        sample_hitting_time(g, starts, targets, rng).steps));
  }
  const auto ci = mean_confidence_interval(stats);
  EXPECT_NEAR(ci.mean, exact, 5.0 * ci.half_width);
}

TEST(ExactKHitting, MatchesSamplerOnBarbellAcrossBells) {
  const Graph g = make_barbell(7);
  const std::vector<Vertex> starts = {0, 0};
  const Vertex target = 6;
  const std::vector<Vertex> targets = {target};
  const double exact = exact_k_hitting_time(g, starts, target, 4096);

  Rng rng(315);
  RunningStats stats;
  for (int i = 0; i < 8000; ++i) {
    stats.add(static_cast<double>(
        sample_hitting_time(g, starts, targets, rng).steps));
  }
  const auto ci = mean_confidence_interval(stats);
  EXPECT_NEAR(ci.mean, exact, 5.0 * ci.half_width);
}

TEST(ExactKHitting, RejectsOversizedStateSpace) {
  const Graph g = make_cycle(10);
  const std::vector<Vertex> starts = {0, 0, 0};
  EXPECT_THROW(exact_k_hitting_time(g, starts, 5, 729),
               std::invalid_argument);
}

}  // namespace
}  // namespace manywalks
