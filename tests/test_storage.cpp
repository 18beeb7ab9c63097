// The storage/ subsystem: mwg round-trips across every generator family,
// malformed-file rejection (corrupt targets included), mmap-vs-in-core
// walk-engine bit identity (including the registered mwg experiments over
// every engine source), external
// edge-list ingestion corner cases, and the zero-adjacency-read contract
// of the shallow (info) load path at 10^6 vertices.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "cli/experiments_mwg.hpp"
#include "cli/graph_tool.hpp"
#include "cli/sinks.hpp"
#include "core/families.hpp"
#include "graph/generators.hpp"
#include "mc/estimators.hpp"
#include "storage/block_store.hpp"
#include "storage/ingest.hpp"
#include "storage/mapped_graph.hpp"
#include "storage/mwg.hpp"
#include "walk/block_engine.hpp"
#include "walk/engine.hpp"
#include "walk/sampling.hpp"

namespace manywalks {
namespace {

/// Unique-per-name scratch path, removed by the fixture-free helper's
/// destructor so failed tests don't leave multi-MB files behind.
class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("manywalks_test_storage_" + name))
                  .string()) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

void expect_same_arrays(const Graph& g, const MappedGraph& mapped) {
  ASSERT_EQ(g.num_vertices(), mapped.num_vertices());
  ASSERT_EQ(g.num_arcs(), mapped.num_arcs());
  EXPECT_EQ(g.num_edges(), mapped.num_edges());
  EXPECT_EQ(g.num_loops(), mapped.num_loops());
  if (g.num_vertices() > 0) {
    EXPECT_EQ(g.min_degree(), mapped.min_degree());
    EXPECT_EQ(g.max_degree(), mapped.max_degree());
  }
  const auto go = g.offsets();
  const auto mo = mapped.offsets();
  ASSERT_EQ(go.size(), mo.size());
  for (std::size_t i = 0; i < go.size(); ++i) ASSERT_EQ(go[i], mo[i]);
  const auto gt = g.targets();
  const auto mt = mapped.targets();
  ASSERT_EQ(gt.size(), mt.size());
  for (std::size_t i = 0; i < gt.size(); ++i) ASSERT_EQ(gt[i], mt[i]);
}

// --- round trips -------------------------------------------------------------

TEST(MwgRoundtrip, EveryGeneratorFamily) {
  TempFile file("family.mwg");
  for (GraphFamily family : all_families()) {
    SCOPED_TRACE(family_name(family));
    const FamilyInstance instance = make_family_instance(family, 64, /*seed=*/3);
    write_mwg(file.path(), instance.graph);
    const MappedGraph mapped(file.path(), MappedGraph::Validate::kDeep);
    expect_same_arrays(instance.graph, mapped);
  }
}

TEST(MwgRoundtrip, LoopsAndParallelEdges) {
  GraphBuilder b(3);
  b.add_edge(0, 0).add_edge(0, 1).add_edge(0, 1).add_edge(1, 2);
  GraphBuilder::BuildOptions options;
  options.duplicates = GraphBuilder::DuplicatePolicy::kKeep;
  options.loops = GraphBuilder::LoopPolicy::kKeep;
  const Graph g = b.build(options);
  TempFile file("multi.mwg");
  write_mwg(file.path(), g);
  const MappedGraph mapped(file.path(), MappedGraph::Validate::kDeep);
  expect_same_arrays(g, mapped);
  EXPECT_EQ(mapped.num_loops(), 1u);
}

TEST(MwgRoundtrip, ToGraphMaterializesIdenticalGraph) {
  const Graph g = make_barbell(21);
  TempFile file("tograph.mwg");
  write_mwg(file.path(), g);
  const MappedGraph mapped(file.path());
  const Graph back = to_graph(mapped);
  expect_same_arrays(back, mapped);
}

TEST(MwgRoundtrip, SubstrateWriterMatchesGraphWriterByteForByte) {
  // The streaming substrate writer must produce the canonical CSR file —
  // including the hypercube, whose substrate enumerates rows in bit order
  // (unsorted) and so exercises the per-row sort.
  struct Case {
    const char* name;
    Graph graph;
    std::function<void(const std::string&)> write_substrate;
  };
  const Case cases[] = {
      {"cycle", make_cycle(33),
       [](const std::string& p) { write_mwg(p, CycleSubstrate(33)); }},
      {"hypercube", make_hypercube(4),
       [](const std::string& p) { write_mwg(p, HypercubeSubstrate(4)); }},
      {"complete", make_complete(9),
       [](const std::string& p) { write_mwg(p, CompleteSubstrate(9)); }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    TempFile from_graph("w_graph.mwg");
    TempFile from_substrate("w_substrate.mwg");
    write_mwg(from_graph.path(), c.graph);
    c.write_substrate(from_substrate.path());
    std::ifstream a(from_graph.path(), std::ios::binary);
    std::ifstream b(from_substrate.path(), std::ios::binary);
    std::stringstream sa, sb;
    sa << a.rdbuf();
    sb << b.rdbuf();
    EXPECT_EQ(sa.str(), sb.str());
  }
}

TEST(MwgRoundtrip, EmptyAndIsolatedGraphs) {
  TempFile file("empty.mwg");
  GraphBuilder lonely(5);  // 5 isolated vertices, no edges
  const Graph g = lonely.build();
  write_mwg(file.path(), g);
  const MappedGraph mapped(file.path(), MappedGraph::Validate::kDeep);
  EXPECT_EQ(mapped.num_vertices(), 5u);
  EXPECT_EQ(mapped.num_arcs(), 0u);
  EXPECT_EQ(mapped.min_degree(), 0u);
  // Unwalkable: the substrate binding refuses, load/info do not.
  EXPECT_THROW(mapped.substrate(), std::invalid_argument);
}

// --- malformed-file rejection ------------------------------------------------

class CorruptFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    graph_ = make_margulis_expander(8);
    write_mwg(file_.path(), graph_);
  }

  /// Overwrites `count` bytes at `offset` with `value`.
  void stomp(std::uint64_t offset, std::size_t count, char value) {
    std::fstream f(file_.path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(offset));
    const std::string bytes(count, value);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  void truncate_to(std::uint64_t bytes) {
    std::filesystem::resize_file(file_.path(), bytes);
  }

  Graph graph_;
  TempFile file_{"corrupt.mwg"};
};

TEST_F(CorruptFixture, RejectsBadMagic) {
  stomp(0, 1, 'X');
  EXPECT_THROW(MappedGraph{file_.path()}, std::invalid_argument);
}

TEST_F(CorruptFixture, RejectsWrongEndianness) {
  // Byte-swap the endianness tag: 0x01020304 stored little-endian is
  // 04 03 02 01 on disk; reversing those bytes simulates a big-endian
  // producer. The error must name the byte order, not a generic failure.
  std::fstream f(file_.path(), std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(8);
  char tag[4];
  f.read(tag, 4);
  std::swap(tag[0], tag[3]);
  std::swap(tag[1], tag[2]);
  f.seekp(8);
  f.write(tag, 4);
  f.close();
  try {
    const MappedGraph mapped(file_.path());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("byte order"), std::string::npos)
        << e.what();
  }
}

TEST_F(CorruptFixture, RejectsUnknownVersion) {
  stomp(12, 1, 9);
  EXPECT_THROW(MappedGraph{file_.path()}, std::invalid_argument);
}

TEST_F(CorruptFixture, RejectsTruncatedFile) {
  const std::uint64_t full =
      mwg_file_bytes(graph_.num_vertices(), graph_.num_arcs());
  truncate_to(full - 4);  // one missing target
  EXPECT_THROW(MappedGraph{file_.path()}, std::invalid_argument);
  truncate_to(kMwgHeaderBytes - 1);  // not even a header
  EXPECT_THROW(MappedGraph{file_.path()}, std::invalid_argument);
}

TEST_F(CorruptFixture, RejectsHeaderDegreeMismatch) {
  // min_degree lives at byte 40; lying about it must be caught by the
  // structure scan (a wrong cached degree range would mis-bind engines).
  stomp(40, 1, 3);
  EXPECT_THROW(MappedGraph{file_.path()}, std::invalid_argument);
}

TEST_F(CorruptFixture, DeepValidationCatchesGarbageTargets) {
  stomp(mwg_targets_begin(graph_.num_vertices()), 4, '\xff');
  // Shallow load never reads targets, so it accepts the file...
  EXPECT_NO_THROW(MappedGraph{file_.path()});
  // ...and deep validation rejects it.
  EXPECT_THROW(MappedGraph(file_.path(), MappedGraph::Validate::kDeep),
               std::invalid_argument);
}

TEST_F(CorruptFixture, RejectsAbandonedWrite) {
  // A writer that never finish()ed leaves a zeroed header.
  TempFile unfinished("unfinished.mwg");
  {
    MwgWriter writer(unfinished.path(), 3);
    const Vertex row[] = {1};
    writer.append_row(row);
    // no finish()
  }
  EXPECT_THROW(MappedGraph{unfinished.path()}, std::invalid_argument);
}

// Environmental I/O failures are MwgIoError with a user-facing message —
// no "requirement violated"/file:line diagnostics noise — so the CLI can
// print what() verbatim (`manywalks graph info missing.mwg`).
TEST(MwgIoErrors, MissingPathThrowsCleanIoError) {
  const std::string missing = "/nonexistent-dir/manywalks-missing.mwg";
  try {
    const MappedGraph mapped(missing);
    FAIL() << "expected MwgIoError";
  } catch (const MwgIoError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("cannot open"), std::string::npos) << what;
    EXPECT_NE(what.find(missing), std::string::npos) << what;
    EXPECT_EQ(what.find("requirement violated"), std::string::npos) << what;
  }
}

TEST(MwgIoErrors, UnwritableWriterPathThrowsCleanIoError) {
  try {
    MwgWriter writer("/nonexistent-dir/out.mwg", 3);
    FAIL() << "expected MwgIoError";
  } catch (const MwgIoError& error) {
    EXPECT_NE(std::string(error.what()).find("for writing"),
              std::string::npos)
        << error.what();
  }
}

// MwgIoError still lands in generic std::exception handlers (it must never
// bypass the CLI's catch).
TEST(MwgIoErrors, IsARuntimeError) {
  EXPECT_THROW(MappedGraph{"/nonexistent-dir/x.mwg"}, std::runtime_error);
}

// --- mmap-vs-in-core engine bit identity -------------------------------------

std::vector<std::uint64_t> sample_steps(WalkEngineT<CsrSubstrate>& engine,
                                        Vertex n, std::uint64_t seed) {
  std::vector<std::uint64_t> steps;
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    Rng rng = make_trial_rng(seed, trial);
    const std::vector<Vertex> starts(4, static_cast<Vertex>(trial % n));
    engine.reset(starts);
    const CoverSample sample = engine.run_until_visited(n, rng);
    EXPECT_TRUE(sample.covered);
    steps.push_back(sample.steps);
  }
  return steps;
}

TEST(MappedEngine, BitIdenticalToInCore) {
  // One regular graph (margulis — the stride-addressed kernel) and one
  // irregular (barbell — the staged pipeline): the mapped file must
  // reproduce the in-core engine byte for byte.
  const Graph graphs[] = {make_margulis_expander(6), make_barbell(31)};
  for (const Graph& g : graphs) {
    TempFile file("identity.mwg");
    write_mwg(file.path(), g);
    const MappedGraph mapped(file.path());
    WalkEngineT<CsrSubstrate> in_core{CsrSubstrate(g)};
    WalkEngineT<CsrSubstrate> off_disk{mapped.substrate()};
    EXPECT_EQ(sample_steps(in_core, g.num_vertices(), 99),
              sample_steps(off_disk, g.num_vertices(), 99));
  }
}

TEST(MappedEngine, RunForStepsTokensMatch) {
  const Graph g = make_grid_2d(7);
  TempFile file("tokens.mwg");
  write_mwg(file.path(), g);
  const MappedGraph mapped(file.path());
  WalkEngineT<CsrSubstrate> in_core{CsrSubstrate(g)};
  WalkEngineT<CsrSubstrate> off_disk{mapped.substrate()};
  const std::vector<Vertex> starts(8, 3);
  Rng rng_a(5), rng_b(5);
  in_core.reset(starts);
  off_disk.reset(starts);
  in_core.run_for_steps(200, rng_a);
  off_disk.run_for_steps(200, rng_b);
  const auto ta = in_core.tokens();
  const auto tb = off_disk.tokens();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) EXPECT_EQ(ta[i], tb[i]);
  EXPECT_EQ(in_core.num_visited(), off_disk.num_visited());
}

TEST(MappedEngine, StationaryCsrSamplingMatchesGraphSampling) {
  const Graph g = make_barbell(21);
  TempFile file("stationary.mwg");
  write_mwg(file.path(), g);
  const MappedGraph mapped(file.path());
  Rng rng_a(11), rng_b(11);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(sample_stationary_vertex(g, rng_a),
              sample_stationary_vertex_csr(mapped.offsets(), rng_b));
  }
}

// --- the registered experiments off a file -----------------------------------

/// The result without its engine-source echo (the "parallelism",
/// "lane_shards" and "mem_budget" params, the preamble and the block
/// engine's cache note), rendered as JSON: what every source must agree on.
std::string tables_json(ExperimentResult result) {
  std::erase_if(result.params, [](const auto& param) {
    return param.first == "parallelism" || param.first == "lane_shards" ||
           param.first == "mem_budget";
  });
  std::erase_if(result.notes, [](const std::string& note) {
    return note.starts_with("block engine (");
  });
  result.preamble.clear();
  return cli::render_json(result);
}

/// Runs one mwg experiment body over every engine source: the graph in
/// memory, the mapped file, and the block engine at a budget below one
/// block and at one holding the whole adjacency. The mapped run must be
/// byte-identical to the in-memory one, and the block engine's tables too.
template <class Body>
void expect_identical_on_every_source(const Graph& g, const std::string& name,
                                      const Body& body) {
  TempFile file(name);
  write_mwg(file.path(), g, /*block_bits=*/3);
  const MappedGraph mapped(file.path());
  const BlockedGraph blocked(file.path());
  ThreadPool pool(2);

  const ExperimentResult in_core = body(InCore(CsrSubstrate(g)), pool);
  EXPECT_EQ(cli::render_json(body(InCore(mapped.substrate()), pool)),
            cli::render_json(in_core));
  for (const std::uint64_t budget :
       {std::uint64_t{64}, std::uint64_t{1} << 20}) {
    SCOPED_TRACE(budget);
    BlockWalkEngine engine(blocked, budget);
    BlockedRunTotals totals;
    const ExperimentResult out_of_core = body(OutOfCore{engine, &totals}, pool);
    EXPECT_EQ(tables_json(out_of_core), tables_json(in_core));
    EXPECT_GT(totals.trials, 0u);
    const std::string json = cli::render_json(out_of_core);
    EXPECT_NE(json.find("\"parallelism\": \"blocked\""), std::string::npos);
    EXPECT_NE(json.find("\"mem_budget\": " + std::to_string(budget)),
              std::string::npos);
  }
}

TEST(MwgExperiments, SpeedupByteIdenticalOnEveryEngineSource) {
  cli::ExperimentParams params;
  params.seed = 51;
  params.trials = 10;
  params.kmax = 4;
  expect_identical_on_every_source(
      make_margulis_expander(6), "exp.mwg",
      [&](const auto& engines, ThreadPool& pool) {
        return cli::run_mwg_speedup_on(engines, "graph", params, pool);
      });
}

TEST(MwgExperiments, StartsByteIdenticalOnEveryEngineSource) {
  cli::ExperimentParams params;
  params.seed = 52;
  params.trials = 10;
  params.k = 4;
  expect_identical_on_every_source(
      make_grid_2d(6), "starts.mwg",
      [&](const auto& engines, ThreadPool& pool) {
        return cli::run_mwg_starts_on(engines, "graph", params, pool);
      });
}

/// Writes 2^31 - 1 over every 97th target of the store at `path`.
void corrupt_every_97th_target(const std::string& path) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  MwgHeader header{};
  f.read(reinterpret_cast<char*>(&header), sizeof(header));
  const Vertex bad = 0x7fffffffU;
  for (std::uint64_t a = 0; a < header.num_arcs; a += 97) {
    f.seekp(static_cast<std::streamoff>(
        mwg_targets_begin(header.num_vertices) + a * sizeof(Vertex)));
    f.write(reinterpret_cast<const char*>(&bad), sizeof(bad));
  }
  ASSERT_TRUE(f.good());
}

TEST(MwgExperiments, CorruptTargetsFailCleanlyOnEveryWalkPath) {
  // Structure validation never reads the targets, so every walk path must
  // check them itself: an out-of-range target would index past the visit
  // tracker. v1 and v2 stores, in-core and (v2) block-walked.
  for (const std::uint32_t block_bits : {0U, 4U}) {
    SCOPED_TRACE(block_bits);
    TempFile file("corrupt.mwg");
    write_mwg(file.path(), make_cycle(257), block_bits);
    corrupt_every_97th_target(file.path());
    EXPECT_NO_THROW(MappedGraph{file.path()});
    EXPECT_THROW(MappedGraph(file.path(), MappedGraph::Validate::kTargets),
                 std::invalid_argument);

    ThreadPool pool(2);
    for (const char* name : {"mwg-speedup", "mwg-starts"}) {
      SCOPED_TRACE(name);
      const cli::Experiment* experiment = cli::default_registry().find(name);
      ASSERT_NE(experiment, nullptr);
      cli::ExperimentParams params;
      params.seed = experiment->info.default_seed;
      params.trials = 4;
      params.kmax = 4;
      params.k = 2;
      params.graph = file.path();
      const auto fails_cleanly = [&] {
        try {
          experiment->run(params, pool);
        } catch (const MwgIoError&) {
          return true;
        } catch (const std::invalid_argument&) {
          return true;
        }
        return false;
      };
      EXPECT_TRUE(fails_cleanly());
      if (block_bits > 0) {
        params.block_walk = true;
        params.mem_budget = "64K";
        EXPECT_TRUE(fails_cleanly());
      }
    }
    if (block_bits > 0) {
      const BlockedGraph blocked(file.path());
      ExtentCache cache(blocked, 1 << 20);
      EXPECT_THROW(
          cache.acquire(blocked.block_byte_begin(0), blocked.block_byte_end(0)),
          std::invalid_argument);
    }
  }
}

TEST(MwgExperiments, RegisteredRunnersWorkEndToEnd) {
  const Graph g = make_grid_2d(6);
  TempFile file("registered.mwg");
  write_mwg(file.path(), g);
  ThreadPool pool(2);
  for (const char* name : {"mwg-speedup", "mwg-starts"}) {
    SCOPED_TRACE(name);
    const cli::Experiment* experiment = cli::default_registry().find(name);
    ASSERT_NE(experiment, nullptr);
    cli::ExperimentParams params;
    params.seed = experiment->info.default_seed;
    params.trials = 8;
    params.kmax = 4;
    params.k = 2;
    params.graph = file.path();
    const ExperimentResult result = experiment->run(params, pool);
    EXPECT_EQ(result.name, name);
    ASSERT_FALSE(result.tables.empty());
    EXPECT_FALSE(result.tables.front().rows().empty());
  }
}

TEST(MwgExperiments, MissingGraphFlagIsAClearError) {
  ThreadPool pool(1);
  cli::ExperimentParams params;
  params.trials = 4;
  try {
    cli::default_registry().find("mwg-speedup")->run(params, pool);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--graph"), std::string::npos)
        << e.what();
  }
}

// --- external edge-list ingestion --------------------------------------------

EdgeListIngestResult ingest_text(const std::string& text,
                                 const EdgeListIngestOptions& options = {}) {
  std::istringstream is(text);
  return ingest_edge_list(is, options);
}

TEST(Ingest, RelabelsNonContiguousIdsDeterministically) {
  const auto result = ingest_text("# comment\n500 7\n7 1000000007\n");
  EXPECT_EQ(result.graph.num_vertices(), 3u);
  EXPECT_EQ(result.graph.num_edges(), 2u);
  // Dense ids by ascending original id, independent of edge order.
  EXPECT_EQ(result.original_ids,
            (std::vector<std::uint64_t>{7, 500, 1000000007}));
  EXPECT_TRUE(result.graph.has_edge(1, 0));
  EXPECT_TRUE(result.graph.has_edge(0, 2));
  EXPECT_FALSE(result.graph.has_edge(1, 2));
}

TEST(Ingest, DedupCollapsesBothDirectionsAndRepeats) {
  const auto result = ingest_text("1 2\n2 1\n1 2\n2 3\n");
  EXPECT_EQ(result.graph.num_edges(), 2u);
  EXPECT_EQ(result.stats.duplicates_dropped, 2u);
  EXPECT_TRUE(result.graph.is_simple());
}

TEST(Ingest, KeepDuplicatesBuildsParallelEdges) {
  EdgeListIngestOptions options;
  options.dedup = false;
  const auto result = ingest_text("1 2\n2 1\n", options);
  EXPECT_EQ(result.graph.num_edges(), 2u);  // parallel pair
  EXPECT_EQ(result.graph.edge_multiplicity(0, 1), 2u);
}

TEST(Ingest, SelfLoopPolicies) {
  const auto dropped = ingest_text("1 1\n1 2\n");
  EXPECT_EQ(dropped.stats.self_loops_dropped, 1u);
  EXPECT_EQ(dropped.graph.num_loops(), 0u);

  EdgeListIngestOptions keep;
  keep.drop_self_loops = false;
  const auto kept = ingest_text("1 1\n1 2\n", keep);
  EXPECT_EQ(kept.graph.num_loops(), 1u);
  EXPECT_EQ(kept.graph.degree(0), 2u);  // loop adds one arc
}

TEST(Ingest, LargestComponentExtractionRemapsOriginalIds) {
  // Components {10,11,12} (triangle) and {20,21} (edge).
  const std::string text = "10 11\n11 12\n12 10\n20 21\n";
  const auto whole = ingest_text(text);
  EXPECT_EQ(whole.stats.num_components, 2u);
  EXPECT_EQ(whole.stats.vertices_outside_largest, 2u);
  EXPECT_EQ(whole.graph.num_vertices(), 5u);

  EdgeListIngestOptions lcc;
  lcc.largest_component = true;
  const auto largest = ingest_text(text, lcc);
  EXPECT_EQ(largest.graph.num_vertices(), 3u);
  EXPECT_EQ(largest.graph.num_edges(), 3u);
  EXPECT_EQ(largest.original_ids, (std::vector<std::uint64_t>{10, 11, 12}));
}

TEST(Ingest, CommentsWhitespaceAndCrlf) {
  const auto result =
      ingest_text("% matrix-market style comment\n"
                  "# snap style comment\n"
                  "\n"
                  "   \t\n"
                  "1\t2\r\n"
                  "  2   3  \n");
  EXPECT_EQ(result.graph.num_edges(), 2u);
  EXPECT_EQ(result.stats.comment_lines, 4u);
}

TEST(Ingest, MalformedRowsNameTheLine) {
  for (const char* text : {"1 2\nfish 3\n", "1 2\n3\n", "1 2\n1 2 0.5\n",
                           "1 2\n-1 3\n"}) {
    SCOPED_TRACE(text);
    try {
      ingest_text(text);
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Ingest, EmptyInputIsAnError) {
  EXPECT_THROW(ingest_text("# nothing\n"), std::invalid_argument);
  EXPECT_THROW(ingest_text("5 5\n"), std::invalid_argument);  // only a loop
}

TEST(Ingest, RoundTripsThroughMwg) {
  const auto result = ingest_text("0 1\n1 2\n2 0\n2 3\n");
  TempFile file("ingested.mwg");
  write_mwg(file.path(), result.graph);
  const MappedGraph mapped(file.path(), MappedGraph::Validate::kDeep);
  expect_same_arrays(result.graph, mapped);
}

// --- the graph tool CLI ------------------------------------------------------

int run_graph_tool(std::vector<std::string> args) {
  args.insert(args.begin(), "graph");  // argv[0] slot, as manywalks_main passes
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& arg : args) argv.push_back(arg.data());
  return cli::graph_tool_main(static_cast<int>(argv.size()), argv.data());
}

TEST(GraphTool, ConvertAcceptsAllOptionSpellings) {
  TempFile edges("cli_edges.txt");
  {
    std::ofstream out(edges.path());
    out << "# comment\n1 2\n2 3\n3 1\n";
  }
  TempFile mwg("cli_out.mwg");
  // --in=V, --in V (space-separated values must not be eaten by the
  // positional scan), and the leading positional form.
  EXPECT_EQ(run_graph_tool({"convert", "--in=" + edges.path(),
                            "--out=" + mwg.path()}),
            0);
  EXPECT_EQ(run_graph_tool({"convert", "--in", edges.path(),
                            "--largest-component", "--out", mwg.path()}),
            0);
  EXPECT_EQ(run_graph_tool({"convert", edges.path(), "--out=" + mwg.path()}),
            0);
  const MappedGraph mapped(mwg.path(), MappedGraph::Validate::kDeep);
  EXPECT_EQ(mapped.num_vertices(), 3u);
  EXPECT_EQ(run_graph_tool({"info", mwg.path(), "--deep"}), 0);
  EXPECT_EQ(run_graph_tool({"info", "--in=" + mwg.path()}), 0);
}

TEST(GraphTool, GenInfoRoundTrip) {
  TempFile mwg("cli_gen.mwg");
  EXPECT_EQ(run_graph_tool({"gen", "--family=cycle", "--n=64",
                            "--out=" + mwg.path()}),
            0);
  const MappedGraph mapped(mwg.path(), MappedGraph::Validate::kDeep);
  // The family registry rounds to its natural parameterization (odd n
  // for cycles), so only the rough size is pinned here.
  EXPECT_GE(mapped.num_vertices(), 64u);
  EXPECT_TRUE(mapped.is_regular());
  EXPECT_EQ(mapped.min_degree(), 2u);
  EXPECT_EQ(run_graph_tool({"info", mwg.path()}), 0);
  // Errors are exit codes, not exceptions, at the tool boundary.
  EXPECT_EQ(run_graph_tool({"gen", "--family=nope", "--out=" + mwg.path()}), 1);
  EXPECT_EQ(run_graph_tool({"info", "/nonexistent.mwg"}), 1);
  EXPECT_EQ(run_graph_tool({"frobnicate"}), 1);
}

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(GraphTool, GenStreamsClosedFormFamiliesAsTheirInCoreGraph) {
  // `graph gen` streams cycle/complete/grid2d/hypercube from their
  // substrates; the file must be the in-core family graph's, byte for
  // byte, and a size the family registry rejects must fail the same way.
  TempFile streamed("gen_streamed.mwg");
  TempFile in_core("gen_in_core.mwg");
  const std::uint64_t sizes[] = {2, 3, 4, 5, 8, 9, 24, 50, 63, 100, 257, 1000};
  for (const char* name : {"cycle", "complete", "grid2d", "hypercube"}) {
    const GraphFamily family = *family_from_name(name);
    for (const std::uint64_t n : sizes) {
      for (const std::int64_t bits : {0, 4, -1}) {
        SCOPED_TRACE(std::string(name) + " n=" + std::to_string(n) +
                     " bits=" + std::to_string(bits));
        std::ostringstream quiet;
        std::streambuf* const saved_out = std::cout.rdbuf(quiet.rdbuf());
        std::streambuf* const saved_err = std::cerr.rdbuf(quiet.rdbuf());
        const int exit_code = run_graph_tool(
            {"gen", std::string("--family=") + name,
             "--n=" + std::to_string(n), "--block-bits=" + std::to_string(bits),
             "--out=" + streamed.path()});
        std::cout.rdbuf(saved_out);
        std::cerr.rdbuf(saved_err);
        if (n < 4) {
          EXPECT_EQ(exit_code, 1);
          EXPECT_THROW(make_family_instance(family, n), std::invalid_argument);
          continue;
        }
        ASSERT_EQ(exit_code, 0) << quiet.str();
        const Graph g = make_family_instance(family, n).graph;
        write_mwg(in_core.path(), g,
                  bits < 0 ? mwg_default_block_bits(g.num_vertices())
                           : static_cast<std::uint32_t>(bits));
        EXPECT_EQ(file_bytes(streamed.path()), file_bytes(in_core.path()));
      }
    }
  }
}

// --- the zero-adjacency-read contract at 10^6 vertices -----------------------

TEST(MwgInfoScale, MillionVertexShallowLoadNeverTouchesAdjacency) {
  // A 10^6-vertex cycle streamed from the implicit substrate (no CSR graph
  // is ever built), then the entire adjacency region is overwritten with
  // garbage. The shallow (info) load still succeeds with correct stats —
  // proof it reads only the header and the offsets array — while deep
  // validation, which does read the adjacency, rejects the file.
  constexpr Vertex kN = 1'000'000;
  TempFile file("million.mwg");
  write_mwg(file.path(), CycleSubstrate(kN));
  {
    std::fstream f(file.path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(mwg_targets_begin(kN)));
    const std::string garbage(4096, '\xff');
    std::uint64_t remaining = static_cast<std::uint64_t>(kN) * 2 * sizeof(Vertex);
    while (remaining > 0) {
      const auto chunk = std::min<std::uint64_t>(remaining, garbage.size());
      f.write(garbage.data(), static_cast<std::streamsize>(chunk));
      remaining -= chunk;
    }
  }
  const MappedGraph mapped(file.path());  // structure validation only
  EXPECT_EQ(mapped.num_vertices(), kN);
  EXPECT_EQ(mapped.num_arcs(), static_cast<std::uint64_t>(kN) * 2);
  EXPECT_EQ(mapped.num_edges(), static_cast<std::uint64_t>(kN));
  EXPECT_EQ(mapped.min_degree(), 2u);
  EXPECT_EQ(mapped.max_degree(), 2u);
  EXPECT_TRUE(mapped.is_regular());
  EXPECT_THROW(MappedGraph(file.path(), MappedGraph::Validate::kDeep),
               std::invalid_argument);
}

}  // namespace
}  // namespace manywalks
