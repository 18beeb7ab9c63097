#include "graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace manywalks {
namespace {

TEST(GraphBuilderTest, TriangleStructure) {
  GraphBuilder b(3);
  b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 0);
  const Graph g = b.build();
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.num_arcs(), 6u);
  EXPECT_EQ(g.num_loops(), 0u);
  for (Vertex v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_TRUE(g.is_simple());
  EXPECT_TRUE(g.is_regular());
}

TEST(GraphBuilderTest, NeighborsAreSorted) {
  GraphBuilder b(5);
  b.add_edge(2, 4).add_edge(2, 0).add_edge(2, 3).add_edge(2, 1);
  const Graph g = b.build();
  const auto row = g.neighbors(2);
  EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
  EXPECT_EQ(row.size(), 4u);
}

TEST(GraphBuilderTest, EmptyGraph) {
  const Graph g;
  EXPECT_EQ(g.num_vertices(), 0u);
  EXPECT_EQ(g.num_arcs(), 0u);
}

TEST(GraphBuilderTest, IsolatedVerticesHaveDegreeZero) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_EQ(g.degree(2), 0u);
  EXPECT_EQ(g.degree(3), 0u);
  EXPECT_EQ(g.min_degree(), 0u);
  EXPECT_EQ(g.max_degree(), 1u);
  EXPECT_FALSE(g.is_regular());
}

TEST(GraphBuilderTest, RejectsOutOfRangeEdges) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), std::invalid_argument);
  EXPECT_THROW(b.add_edge(7, 0), std::invalid_argument);
}

TEST(GraphBuilderTest, RejectsSelfLoopByDefault) {
  GraphBuilder b(3);
  b.add_edge(1, 1);
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(GraphBuilderTest, KeepsSelfLoopWhenAllowed) {
  GraphBuilder b(3);
  b.add_edge(1, 1).add_edge(0, 1);
  GraphBuilder::BuildOptions options;
  options.loops = GraphBuilder::LoopPolicy::kKeep;
  const Graph g = b.build(options);
  EXPECT_EQ(g.num_loops(), 1u);
  EXPECT_EQ(g.num_edges(), 2u);
  // Loop contributes one arc: degree(1) = loop + edge to 0 = 2.
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_EQ(g.edge_multiplicity(1, 1), 1u);
  EXPECT_FALSE(g.is_simple());
}

TEST(GraphBuilderTest, RejectsParallelEdgesByDefault) {
  GraphBuilder b(3);
  b.add_edge(0, 1).add_edge(1, 0);
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(GraphBuilderTest, DedupesParallelEdges) {
  GraphBuilder b(3);
  b.add_edge(0, 1).add_edge(1, 0).add_edge(0, 1);
  b.add_edge(2, 1).add_edge(1, 2);  // later rows shift left after dedupe
  GraphBuilder::BuildOptions options;
  options.duplicates = GraphBuilder::DuplicatePolicy::kDedupe;
  const Graph g = b.build(options);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.edge_multiplicity(0, 1), 1u);
  const auto row1 = g.neighbors(1);
  EXPECT_EQ(std::vector<Vertex>(row1.begin(), row1.end()),
            (std::vector<Vertex>{0, 2}));
  EXPECT_EQ(g.degree(2), 1u);
}

TEST(GraphBuilderTest, KeepsParallelEdges) {
  GraphBuilder b(2);
  b.add_edge(0, 1).add_edge(0, 1).add_edge(0, 1);
  GraphBuilder::BuildOptions options;
  options.duplicates = GraphBuilder::DuplicatePolicy::kKeep;
  const Graph g = b.build(options);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.degree(0), 3u);
  EXPECT_EQ(g.edge_multiplicity(0, 1), 3u);
  EXPECT_FALSE(g.is_simple());
}

TEST(GraphFromCsr, ValidatesOffsets) {
  EXPECT_THROW(Graph::from_csr({1, 2}, {0, 0}), std::invalid_argument);
  EXPECT_THROW(Graph::from_csr({0, 3}, {0}), std::invalid_argument);
}

TEST(GraphFromCsr, ValidatesSortedRows) {
  // Vertex 0 row: [1, 0] unsorted.
  EXPECT_THROW(Graph::from_csr({0, 2, 3, 4}, {1, 0, 0, 0}, true),
               std::invalid_argument);
}

TEST(GraphFromCsr, ValidatesSymmetry) {
  // Arc 0->1 without 1->0.
  EXPECT_THROW(Graph::from_csr({0, 1, 1}, {1}, true), std::invalid_argument);
}

TEST(GraphFromCsr, AcceptsValidCsr) {
  const Graph g = Graph::from_csr({0, 1, 2}, {1, 0}, true);
  EXPECT_EQ(g.num_vertices(), 2u);
  EXPECT_EQ(g.num_edges(), 1u);
}

// Asymmetric arc multisets, some with every in-degree equal to its
// out-degree: each must be rejected, and the message must name an
// offending vertex pair.
void expect_asymmetric(std::vector<std::uint64_t> offsets,
                       ArcVector targets, const std::string& pair) {
  try {
    Graph::from_csr(std::move(offsets), std::move(targets), true);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("not symmetric between " + pair), std::string::npos)
        << what;
  }
}

TEST(GraphFromCsr, RejectsDirectedThreeCycle) {
  // 0->1->2->0: every in-degree equals every out-degree (1).
  expect_asymmetric({0, 1, 2, 3}, {1, 2, 0}, "0 and 1");
}

TEST(GraphFromCsr, RejectsMultiplicityMismatch) {
  // 0:{1,1} against 1:{0,2}, 2:{1}.
  expect_asymmetric({0, 2, 4, 5}, {1, 1, 0, 2, 1}, "0 and 1");
  // A symmetric triangle plus the directed cycle 0->1->2->0: all degrees
  // and in-degrees are 3, yet each pair's multiplicities are 2 and 1.
  expect_asymmetric({0, 3, 6, 9}, {1, 1, 2, 0, 2, 2, 0, 0, 1}, "0 and 1");
}

TEST(GraphFromCsr, RejectsOutOfRangeTargetBeforeSymmetry) {
  try {
    Graph::from_csr({0, 1, 2}, {1, 5}, true);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("target out of range"),
              std::string::npos)
        << e.what();
  }
}

TEST(GraphFromCsr, AcceptsLoopsAndMultigraphs) {
  const Graph loops = Graph::from_csr({0, 1, 2}, {0, 1}, true);
  EXPECT_EQ(loops.num_loops(), 2u);
  EXPECT_EQ(loops.num_edges(), 2u);
  // A loop, a parallel pair and a plain edge together.
  const Graph multi =
      Graph::from_csr({0, 3, 6, 7}, {0, 1, 1, 0, 0, 2, 1}, true);
  EXPECT_EQ(multi.num_loops(), 1u);
  EXPECT_EQ(multi.edge_multiplicity(0, 1), 2u);
}

TEST(GraphFromCsr, TargetsStartOnACacheLine) {
  // The regular walk kernel prefetches a row's first cache line; aligned
  // targets keep every 8-arc row inside one line.
  const auto aligned = [](const Graph& g) {
    return reinterpret_cast<std::uintptr_t>(g.targets().data()) % 64 == 0;
  };
  GraphBuilder b(3);
  b.add_edge(0, 1).add_edge(1, 2);
  EXPECT_TRUE(aligned(b.build()));
  EXPECT_TRUE(aligned(Graph::from_csr({0, 1, 2}, {1, 0}, true)));
}

TEST(GraphAccessors, NeighborIndexing) {
  GraphBuilder b(4);
  b.add_edge(0, 1).add_edge(0, 2).add_edge(0, 3);
  const Graph g = b.build();
  EXPECT_EQ(g.neighbor(0, 0), 1u);
  EXPECT_EQ(g.neighbor(0, 1), 2u);
  EXPECT_EQ(g.neighbor(0, 2), 3u);
}

TEST(GraphAccessors, HasEdgeChecksRange) {
  GraphBuilder b(2);
  b.add_edge(0, 1);
  const Graph g = b.build();
  EXPECT_THROW((void)g.has_edge(0, 5), std::invalid_argument);
}

TEST(Describe, MentionsSizeAndDegrees) {
  GraphBuilder b(3);
  b.add_edge(0, 1).add_edge(1, 2);
  const Graph g = b.build();
  const std::string d = describe(g);
  EXPECT_NE(d.find("n=3"), std::string::npos);
  EXPECT_NE(d.find("m=2"), std::string::npos);
}

}  // namespace
}  // namespace manywalks
