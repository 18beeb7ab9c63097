#include "graph/generators.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <tuple>
#include <utility>

#include "graph/properties.hpp"

namespace manywalks {
namespace {

TEST(CycleGen, Structure) {
  const Graph g = make_cycle(7);
  EXPECT_EQ(g.num_vertices(), 7u);
  EXPECT_EQ(g.num_edges(), 7u);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_TRUE(g.has_edge(6, 0));
  EXPECT_TRUE(g.has_edge(3, 4));
  EXPECT_FALSE(g.has_edge(0, 3));
  EXPECT_THROW(make_cycle(2), std::invalid_argument);
}

TEST(PathGen, Structure) {
  const Graph g = make_path(5);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.degree(0), 1u);
  EXPECT_EQ(g.degree(4), 1u);
  EXPECT_EQ(g.degree(2), 2u);
  EXPECT_FALSE(g.has_edge(0, 4));
}

TEST(CompleteGen, Structure) {
  const Graph g = make_complete(6);
  EXPECT_EQ(g.num_edges(), 15u);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.degree(0), 5u);
  EXPECT_TRUE(g.is_simple());
}

TEST(CompleteGen, WithSelfLoops) {
  const Graph g = make_complete(4, /*with_self_loops=*/true);
  EXPECT_EQ(g.num_loops(), 4u);
  EXPECT_EQ(g.degree(0), 4u);  // 3 neighbors + 1 loop arc
  EXPECT_EQ(g.num_edges(), 6u + 4u);
}

TEST(CompleteBipartiteGen, Structure) {
  const Graph g = make_complete_bipartite(3, 4);
  EXPECT_EQ(g.num_vertices(), 7u);
  EXPECT_EQ(g.num_edges(), 12u);
  EXPECT_EQ(g.degree(0), 4u);
  EXPECT_EQ(g.degree(3), 3u);
  EXPECT_TRUE(is_bipartite(g));
  EXPECT_FALSE(g.has_edge(0, 1));  // same side
}

TEST(StarGen, Structure) {
  const Graph g = make_star(9);
  EXPECT_EQ(g.degree(0), 8u);
  for (Vertex v = 1; v < 9; ++v) EXPECT_EQ(g.degree(v), 1u);
}

TEST(Grid2dTorusGen, Structure) {
  const Graph g = make_grid_2d(5, GridTopology::kTorus);
  EXPECT_EQ(g.num_vertices(), 25u);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.degree(0), 4u);
  EXPECT_EQ(g.num_edges(), 50u);
  // Wrap edges: (0,0) ~ (0,4) and (0,0) ~ (4,0) in row-major indexing.
  EXPECT_TRUE(g.has_edge(0, 4));
  EXPECT_TRUE(g.has_edge(0, 20));
}

TEST(Grid2dOpenGen, BoundaryDegrees) {
  const Graph g = make_grid_2d(4, GridTopology::kOpen);
  EXPECT_EQ(g.num_vertices(), 16u);
  EXPECT_EQ(g.degree(0), 2u);   // corner
  EXPECT_EQ(g.degree(1), 3u);   // edge
  EXPECT_EQ(g.degree(5), 4u);   // interior
  EXPECT_EQ(g.num_edges(), 24u);
  EXPECT_FALSE(g.has_edge(0, 3));
}

TEST(GridGen, SideTwoTorusHasNoDuplicateWrap) {
  const Graph g = make_grid({2, 2}, GridTopology::kTorus);
  EXPECT_EQ(g.num_edges(), 4u);  // plain C4, no parallel wrap edges
  EXPECT_TRUE(g.is_simple());
}

TEST(GridGen, ThreeDimensionalTorus) {
  const Graph g = make_torus(3, 3);
  EXPECT_EQ(g.num_vertices(), 27u);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.degree(0), 6u);
  EXPECT_TRUE(is_connected(g));
}

TEST(GridGen, MixedDimensions) {
  const Graph g = make_grid({2, 3, 4}, GridTopology::kOpen);
  EXPECT_EQ(g.num_vertices(), 24u);
  EXPECT_TRUE(is_connected(g));
}

TEST(HypercubeGen, Structure) {
  const Graph g = make_hypercube(4);
  EXPECT_EQ(g.num_vertices(), 16u);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.degree(0), 4u);
  EXPECT_EQ(g.num_edges(), 32u);
  EXPECT_TRUE(g.has_edge(0b0000, 0b1000));
  EXPECT_FALSE(g.has_edge(0b0000, 0b0011));
  EXPECT_TRUE(is_bipartite(g));
}

TEST(BalancedTreeGen, BinaryTree) {
  const Graph g = make_balanced_tree(2, 3);
  EXPECT_EQ(g.num_vertices(), 15u);
  EXPECT_EQ(g.num_edges(), 14u);
  EXPECT_EQ(g.degree(0), 2u);    // root
  EXPECT_EQ(g.degree(1), 3u);    // internal
  EXPECT_EQ(g.degree(14), 1u);   // leaf
  EXPECT_TRUE(is_connected(g));
}

TEST(BalancedTreeGen, TernaryTree) {
  const Graph g = make_balanced_tree(3, 2);
  EXPECT_EQ(g.num_vertices(), 13u);
  EXPECT_EQ(g.degree(0), 3u);
}

TEST(BalancedTreeGen, HeightZeroIsSingleVertex) {
  const Graph g = make_balanced_tree(2, 0);
  EXPECT_EQ(g.num_vertices(), 1u);
  EXPECT_EQ(g.num_edges(), 0u);
}

TEST(BarbellGen, Structure) {
  const Graph g = make_barbell(13);
  EXPECT_EQ(g.num_vertices(), 13u);
  const Vertex center = barbell_center(13);
  EXPECT_EQ(center, 6u);
  EXPECT_EQ(g.degree(center), 2u);
  // Bells are cliques of size 6: interior bell vertices have degree 5,
  // ports have degree 6.
  EXPECT_EQ(g.degree(0), 5u);
  EXPECT_EQ(g.degree(5), 6u);   // left port
  EXPECT_EQ(g.degree(7), 6u);   // right port
  EXPECT_EQ(g.degree(12), 5u);
  EXPECT_TRUE(g.has_edge(5, center));
  EXPECT_TRUE(g.has_edge(center, 7));
  EXPECT_FALSE(g.has_edge(0, 12));
  EXPECT_TRUE(is_connected(g));
  // Edges: 2 * C(6,2) + 2 = 32.
  EXPECT_EQ(g.num_edges(), 32u);
  EXPECT_THROW(make_barbell(12), std::invalid_argument);
}

TEST(GeneralizedBarbellGen, PathInterior) {
  const Graph g = make_generalized_barbell(4, 3);
  EXPECT_EQ(g.num_vertices(), 11u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.degree(4), 2u);  // interior path vertex
  // 2 cliques K4 (6 edges each) + bridge of 4 edges.
  EXPECT_EQ(g.num_edges(), 16u);
}

TEST(GeneralizedBarbellGen, ZeroInteriorJoinsPortsDirectly) {
  const Graph g = make_generalized_barbell(3, 0);
  EXPECT_EQ(g.num_vertices(), 6u);
  EXPECT_TRUE(g.has_edge(2, 3));
  EXPECT_TRUE(is_connected(g));
}

TEST(LollipopGen, Structure) {
  const Graph g = make_lollipop(12);
  EXPECT_EQ(g.num_vertices(), 12u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.degree(11), 1u);  // end of the stick
  // Clique is on 2n/3 = 8 vertices.
  EXPECT_EQ(g.degree(0), 7u);
}

TEST(MargulisGen, ExactlyEightRegular) {
  for (Vertex side : {2u, 3u, 5u, 8u}) {
    const Graph g = make_margulis_expander(side);
    EXPECT_EQ(g.num_vertices(), side * side);
    EXPECT_TRUE(g.is_regular()) << "side=" << side;
    EXPECT_EQ(g.degree(0), 8u);
    EXPECT_EQ(g.num_arcs(), std::uint64_t{side} * side * 8);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(MargulisGen, ArraysPassFromCsrValidation) {
  // The Margulis multigraph (loops and parallel ports) is symmetric: its
  // own CSR arrays pass from_csr's validation when fed back in.
  const Graph g = make_margulis_expander(6);
  EXPECT_GT(g.num_loops(), 0u);
  EXPECT_FALSE(g.is_simple());
  const Graph copy = Graph::from_csr(
      {g.offsets().begin(), g.offsets().end()},
      {g.targets().begin(), g.targets().end()}, /*validate=*/true);
  EXPECT_EQ(copy.num_arcs(), g.num_arcs());
}

TEST(ErdosRenyiGen, EdgeCountNearExpectation) {
  Rng rng(123);
  const Vertex n = 400;
  const double p = 0.05;
  const Graph g = make_erdos_renyi(n, p, rng);
  const double expected = p * n * (n - 1) / 2.0;
  const double sd = std::sqrt(expected * (1 - p));
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, 6 * sd);
  EXPECT_TRUE(g.is_simple());
}

TEST(ErdosRenyiGen, ExtremeProbabilities) {
  Rng rng(5);
  EXPECT_EQ(make_erdos_renyi(10, 0.0, rng).num_edges(), 0u);
  EXPECT_EQ(make_erdos_renyi(10, 1.0, rng).num_edges(), 45u);
}

TEST(ErdosRenyiGen, Deterministic) {
  Rng a(9);
  Rng b(9);
  const Graph g1 = make_erdos_renyi(100, 0.05, a);
  const Graph g2 = make_erdos_renyi(100, 0.05, b);
  EXPECT_EQ(g1.num_edges(), g2.num_edges());
  ASSERT_EQ(g1.num_arcs(), g2.num_arcs());
  for (Vertex v = 0; v < 100; ++v) {
    const auto r1 = g1.neighbors(v);
    const auto r2 = g2.neighbors(v);
    ASSERT_EQ(r1.size(), r2.size());
    for (std::size_t i = 0; i < r1.size(); ++i) EXPECT_EQ(r1[i], r2[i]);
  }
}

TEST(ErdosRenyiConnectedGen, ProducesConnectedGraph) {
  Rng rng(77);
  const Vertex n = 200;
  const double p = 2.0 * std::log(static_cast<double>(n)) / n;
  const Graph g = make_erdos_renyi_connected(n, p, rng);
  EXPECT_TRUE(is_connected(g));
}

TEST(ErdosRenyiConnectedGen, FailureDiagnosticReportsObservedComponents) {
  // Far below the connectivity threshold every draw fragments; the error
  // must report what the last attempt actually looked like (component
  // count and largest size), not just the generic "raise p" advice.
  Rng rng(5);
  try {
    make_erdos_renyi_connected(64, 0.005, rng, /*max_attempts=*/2);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("components, largest"), std::string::npos) << what;
    EXPECT_NE(what.find("of 64 vertices"), std::string::npos) << what;
    EXPECT_NE(what.find("raise p"), std::string::npos) << what;
  }
}

TEST(RandomRegularGen, IsSimpleAndRegular) {
  Rng rng(31);
  for (Vertex d : {3u, 4u, 8u}) {
    const Graph g = make_random_regular(60, d, rng);
    EXPECT_TRUE(g.is_regular()) << "d=" << d;
    EXPECT_EQ(g.degree(0), d);
    EXPECT_TRUE(g.is_simple());
  }
}

TEST(RandomRegularGen, RejectsOddProduct) {
  Rng rng(1);
  EXPECT_THROW(make_random_regular(5, 3, rng), std::invalid_argument);
}

TEST(RandomRegularGen, RejectsStubCountBeyond32Bits) {
  // n*d = 2^33 stubs cannot be drawn with 32-bit indices; the check comes
  // before any allocation, so this returns at once.
  Rng rng(1);
  EXPECT_THROW(make_random_regular(1u << 30, 8, rng), std::invalid_argument);
  EXPECT_THROW(make_random_regular(1u << 31, 2, rng), std::invalid_argument);
}

TEST(RandomRegularGen, TypicallyConnected) {
  Rng rng(41);
  const Graph g = make_random_regular(200, 4, rng);
  EXPECT_TRUE(is_connected(g));  // w.h.p. for d >= 3
}

// Golden digests of the random-regular and Margulis CSR arrays, recorded
// on the hash-set/GraphBuilder implementation: they pin the pairing's RNG
// stream (every uniform_below draw, reject and restart), the row order and
// the port layout, so any rewrite of the generators must reproduce them.
std::uint64_t csr_digest(const Graph& g) {
  std::uint64_t h = mix64(g.num_vertices());
  for (const std::uint64_t offset : g.offsets()) h = mix64(h ^ offset);
  for (const Vertex target : g.targets()) h = mix64(h ^ target);
  return h;
}

struct RegularGolden {
  Vertex n;
  Vertex d;
  std::uint64_t seed;
  std::uint64_t digest;     // csr_digest of the graph
  std::uint64_t next_draw;  // rng.next() after generation
};

TEST(RandomRegularGen, GoldenDigests) {
  const RegularGolden goldens[] = {
      // Dense cases whose pairing restarts (see StuckRestartTaken).
      {10, 8, 2, 0x30a65e87d5b8d2feULL, 0x1ac8982b661a8223ULL},
      {16, 13, 1, 0x1e180a6e729a9e5dULL, 0x395d88319fa9922bULL},
      {60, 3, 31, 0xa99a7170d3cf0ad0ULL, 0xa13a96b0fdbe4fcfULL},
      {1000, 4, 7, 0xddd063dd494c7d4aULL, 0x5144c3f2982b0619ULL},
      {4096, 8, 1, 0x18fd4f6862d4e277ULL, 0x0b21909ddcc4cf4eULL},
      {5001, 6, 12345, 0x9dbeaff767cadb29ULL, 0xa93138015e43531cULL},
      {65536, 8, 99, 0x49919e3e0fecd977ULL, 0xb9a97e4a840f447fULL},
  };
  for (const RegularGolden& golden : goldens) {
    Rng rng(golden.seed);
    const Graph g = make_random_regular(golden.n, golden.d, rng);
    EXPECT_TRUE(g.is_regular() && g.is_simple());
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(g.targets().data()) % 64, 0u);
    EXPECT_EQ(csr_digest(g), golden.digest)
        << "n=" << golden.n << " d=" << golden.d << " seed=" << golden.seed
        << std::hex << " digest=0x" << csr_digest(g);
    EXPECT_EQ(rng.next(), golden.next_draw)
        << "n=" << golden.n << " d=" << golden.d << " seed=" << golden.seed;
  }
}

TEST(RandomRegularGen, StuckRestartTaken) {
  // The dense golden cases do take the stuck-pool restart: one attempt is
  // not enough for them.
  for (const auto& [n, d, seed] :
       {std::tuple<Vertex, Vertex, std::uint64_t>{10, 8, 2}, {16, 13, 1}}) {
    Rng rng(seed);
    EXPECT_THROW(make_random_regular(n, d, rng, /*max_attempts=*/1),
                 std::invalid_argument)
        << "n=" << n << " d=" << d;
  }
}

TEST(MargulisGen, GoldenDigests) {
  const std::pair<Vertex, std::uint64_t> goldens[] = {
      {2, 0xdc98856828d3efb5ULL},
      {3, 0xc8d5271a2341d007ULL},
      {64, 0x86480c4b8c07d836ULL},
      {512, 0x64c2f2ecd2ea02c9ULL},
  };
  for (const auto& [side, digest] : goldens) {
    const Graph g = make_margulis_expander(side);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(g.targets().data()) % 64, 0u);
    EXPECT_EQ(csr_digest(g), digest)
        << "side=" << side << std::hex << " digest=0x" << csr_digest(g);
  }
}

TEST(RandomGeometricGen, RadiusControlsEdges) {
  Rng rng1(55);
  Rng rng2(55);
  const Graph sparse = make_random_geometric(300, 0.05, rng1);
  const Graph dense = make_random_geometric(300, 0.2, rng2);
  EXPECT_LT(sparse.num_edges(), dense.num_edges());
  EXPECT_TRUE(dense.is_simple());
}

TEST(RandomGeometricGen, FullRadiusIsComplete) {
  Rng rng(3);
  const Graph g = make_random_geometric(20, std::sqrt(2.0), rng);
  EXPECT_EQ(g.num_edges(), 190u);
}

TEST(RandomGeometricGen, ConnectivityRadiusConnectsWhp) {
  Rng rng(99);
  const Vertex n = 500;
  const Graph g =
      make_random_geometric(n, random_geometric_connectivity_radius(n, 3.0), rng);
  EXPECT_TRUE(is_connected(g));
}

// Property sweep: every deterministic family is connected with the expected
// vertex count.
class DeterministicFamilySweep : public ::testing::TestWithParam<Vertex> {};

TEST_P(DeterministicFamilySweep, AllConnected) {
  const Vertex n = GetParam();
  EXPECT_TRUE(is_connected(make_cycle(n)));
  EXPECT_TRUE(is_connected(make_path(n)));
  EXPECT_TRUE(is_connected(make_complete(n)));
  EXPECT_TRUE(is_connected(make_star(n)));
  if (n % 2 == 1 && n >= 7) {
    EXPECT_TRUE(is_connected(make_barbell(n)));
  }
}

TEST_P(DeterministicFamilySweep, HandshakeLemma) {
  const Vertex n = GetParam();
  for (const Graph& g :
       {make_cycle(n), make_path(n), make_complete(n), make_star(n)}) {
    std::uint64_t degree_sum = 0;
    for (Vertex v = 0; v < g.num_vertices(); ++v) degree_sum += g.degree(v);
    EXPECT_EQ(degree_sum, g.num_arcs());
    EXPECT_EQ(degree_sum, 2 * g.num_edges() - g.num_loops());
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, DeterministicFamilySweep,
                         ::testing::Values(4, 7, 9, 16, 33, 64));

}  // namespace
}  // namespace manywalks
