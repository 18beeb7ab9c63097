// Graph I/O throughput: the text edge-list reader (now a from_chars
// scanner) against the mwg binary store — write cost, load cost, and the
// end-to-end "bytes on disk to walk-ready substrate" comparison that
// motivates the storage/ subsystem: text parsing is O(edges) work per
// load, the mmap path is O(vertices) validation and zero adjacency
// copies.
//
// The binary has its own main (like bench_engine): before the
// google-benchmark suite it runs the BENCH_ooc comparison — the
// block-scheduled out-of-core engine vs a naive walker that reads one
// 4 KiB page per step, both on an mwg v2 CSR 4x larger than the extent
// budget, both walking bit-identical lane trajectories. It writes the
// machine-readable BENCH_ooc.json artifact (--ooc_out=PATH, schema
// "manywalks-ooc-v1"); with --ooc_guard it exits nonzero unless the
// block schedule is >= 5x the naive path AND the end states match
// exactly (the determinism-contract-v4 cross-check doubles as the CI
// perf gate).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "storage/block_store.hpp"
#include "storage/mapped_graph.hpp"
#include "storage/mwg.hpp"
#include "util/rng.hpp"
#include "walk/block_engine.hpp"
#include "walk/engine.hpp"
#include "walk/visit_tracker.hpp"

namespace {

using namespace manywalks;

// Margulis side 64: n = 4096 vertices, 8-regular -> 32768 arcs. Dense
// enough that parse cost dominates; small enough to iterate quickly.
const Graph& bench_graph() {
  static const Graph g = make_margulis_expander(64);
  return g;
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// The text serialization of the bench graph, parsed from memory so the
/// benchmark measures the scanner, not the page cache.
const std::string& edge_list_text() {
  static const std::string text = [] {
    std::ostringstream os;
    write_edge_list(os, bench_graph());
    return os.str();
  }();
  return text;
}

const std::string& mwg_path() {
  static const std::string path = [] {
    const std::string p = temp_path("bench_io_graph.mwg");
    write_mwg(p, bench_graph());
    return p;
  }();
  return path;
}

void BM_TextEdgeListParse(benchmark::State& state) {
  const std::string& text = edge_list_text();
  for (auto _ : state) {
    std::istringstream is(text);
    const Graph g = read_edge_list(is);
    benchmark::DoNotOptimize(g.num_arcs());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bench_graph().num_edges()));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(text.size()));
}

void BM_TextEdgeListWrite(benchmark::State& state) {
  for (auto _ : state) {
    std::ostringstream os;
    write_edge_list(os, bench_graph());
    benchmark::DoNotOptimize(os.str().size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bench_graph().num_edges()));
}

void BM_MwgWrite(benchmark::State& state) {
  const std::string path = temp_path("bench_io_write.mwg");
  for (auto _ : state) {
    write_mwg(path, bench_graph());
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bench_graph().num_edges()));
}

void BM_MwgMapLoad(benchmark::State& state) {
  const std::string& path = mwg_path();
  for (auto _ : state) {
    const MappedGraph mapped(path);
    benchmark::DoNotOptimize(mapped.num_arcs());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bench_graph().num_edges()));
}

/// Load + bind + one k-walk burst: the end-to-end cost a stored-graph
/// experiment trial actually pays per process, mmap vs text.
template <bool kMmap>
void load_and_walk(benchmark::State& state) {
  for (auto _ : state) {
    Rng rng(7);
    const std::vector<Vertex> starts(8, 0);
    std::uint64_t visited = 0;
    if constexpr (kMmap) {
      const MappedGraph mapped(mwg_path());
      WalkEngineT<CsrSubstrate> engine(mapped.substrate());
      engine.reset(starts);
      engine.run_for_steps(4096, rng);
      visited = engine.num_visited();
    } else {
      std::istringstream is(edge_list_text());
      const Graph g = read_edge_list(is);
      WalkEngine engine(g);
      engine.reset(starts);
      engine.run_for_steps(4096, rng);
      visited = engine.num_visited();
    }
    benchmark::DoNotOptimize(visited);
  }
}

void BM_LoadAndWalkText(benchmark::State& state) { load_and_walk<false>(state); }
void BM_LoadAndWalkMwg(benchmark::State& state) { load_and_walk<true>(state); }

BENCHMARK(BM_TextEdgeListParse);
BENCHMARK(BM_TextEdgeListWrite);
BENCHMARK(BM_MwgWrite);
BENCHMARK(BM_MwgMapLoad);
BENCHMARK(BM_LoadAndWalkText);
BENCHMARK(BM_LoadAndWalkMwg);

// ---------------------------------------------------------------------------
// BENCH_ooc: block-scheduled vs naive out-of-core walking. The instance is
// a margulis expander at side 512 (n = 2^18, 8-regular, 8 MiB of targets)
// walked under a 2 MiB extent budget — the CSR is 4x the budget, so
// neither side can keep the adjacency resident. Both sides advance the
// SAME k lane trajectories for the same rounds:
//   * block: BlockWalkEngine (bucket walkers by vertex block, one
//     sequential 128 KiB extent read per block miss);
//   * naive: the in-core lane loop shape — every token steps every round
//     in token order — but each neighbor fetch reads its 4 KiB page
//     through a same-budget ExtentCache (one pread per page miss), the
//     access pattern mmap-and-fault degenerates to once the file outgrows
//     RAM (emulated through the cache so the page cache can't hide it).
// End states must match bit for bit (contract v4); the guard gates
// block/naive >= 5x.
// ---------------------------------------------------------------------------

constexpr Vertex kOocSide = 512;           // n = 2^18, 8-regular
constexpr std::uint32_t kOocBlockBits = 12;  // 64 blocks, 128 KiB extents
constexpr std::uint64_t kOocBudget = 2ull << 20;  // targets = 4x this
constexpr unsigned kOocK = 4096;
constexpr std::uint64_t kOocRounds = 256;
constexpr int kOocReps = 3;
constexpr std::uint64_t kOocSeed = 0x0c0ffeeULL;
constexpr std::uint64_t kOocPage = 4096;

struct OocSideResult {
  double seconds = 0.0;
  std::uint64_t num_visited = 0;
  std::vector<Vertex> tokens;
};

struct OocReport {
  std::uint64_t n = 0;
  std::uint64_t arcs = 0;
  std::uint64_t num_blocks = 0;
  double block_steps_per_s = 0.0;
  double naive_steps_per_s = 0.0;
  double ratio = 0.0;
  bool visited_match = true;
  ExtentCache::Stats block_cache;
  ExtentCache::Stats naive_cache;
};

/// One naive rep: same reset/reseed protocol as BlockWalkEngine
/// (lanes reseeded from rng.next()), same per-step draws, but every
/// neighbor fetch goes through a per-step 4 KiB page extent. Returns the
/// end state for the bit-identity cross-check.
OocSideResult naive_rep(const BlockedGraph& g, ExtentCache& cache,
                        std::span<const Vertex> starts, std::uint64_t rounds,
                        std::uint64_t seed, WordVisitTracker& tracker) {
  using clock = std::chrono::steady_clock;
  OocSideResult result;
  result.tokens.assign(starts.begin(), starts.end());
  tracker.reset();
  for (Vertex s : result.tokens) tracker.visit(s);
  Rng master(seed);
  LaneRngs lanes;
  lanes.reseed(master.next(), result.tokens.size());
  const std::uint64_t* const offsets = g.offsets().data();
  const std::uint64_t file_bytes = g.file_bytes();

  const auto t0 = clock::now();
  for (std::uint64_t round = 0; round < rounds; ++round) {
    for (std::size_t i = 0; i < result.tokens.size(); ++i) {
      const Vertex v = result.tokens[i];
      const auto degree = static_cast<Vertex>(offsets[v + 1] - offsets[v]);
      const std::uint64_t arc = offsets[v] + lane_neighbor_index(lanes[i], degree);
      const std::uint64_t byte = g.arc_byte(arc);
      const std::uint64_t page_begin = byte & ~(kOocPage - 1);
      const std::uint64_t page_end =
          std::min(page_begin + kOocPage, file_bytes);
      const std::byte* raw = cache.acquire(page_begin, page_end);
      Vertex next;
      std::memcpy(&next, raw + (byte - page_begin), sizeof(next));
      result.tokens[i] = next;
      tracker.visit(next);
    }
  }
  const auto t1 = clock::now();
  result.seconds = std::chrono::duration<double>(t1 - t0).count();
  result.num_visited = tracker.num_visited();
  return result;
}

OocReport run_ooc() {
  const std::string path = temp_path("bench_io_ooc.mwg");
  {
    const Graph g = make_margulis_expander(kOocSide);
    write_mwg(path, g, kOocBlockBits);
  }
  const BlockedGraph graph(path);
  OocReport report;
  report.n = graph.num_vertices();
  report.arcs = graph.num_arcs();
  report.num_blocks = graph.num_blocks();

  const std::vector<Vertex> starts(kOocK, 0);
  BlockWalkEngine engine(graph, kOocBudget);
  ExtentCache naive_cache(graph, kOocBudget);
  WordVisitTracker naive_tracker(graph.num_vertices());
  using clock = std::chrono::steady_clock;

  // Warm both sides outside the timing (pages the metadata, sizes the
  // lane banks and tracker words).
  {
    Rng warm(kOocSeed + 1000);
    engine.reset(starts);
    engine.run_for_steps(4, warm);
    naive_rep(graph, naive_cache, starts, 4, kOocSeed + 1000, naive_tracker);
  }

  double block_s = 0.0;
  double naive_s = 0.0;
  for (int rep = 0; rep < kOocReps; ++rep) {
    const std::uint64_t seed = kOocSeed + static_cast<std::uint64_t>(rep);
    Rng rng(seed);
    engine.reset(starts);
    const auto t0 = clock::now();
    engine.run_for_steps(kOocRounds, rng);
    const auto t1 = clock::now();
    block_s += std::chrono::duration<double>(t1 - t0).count();

    const OocSideResult naive = naive_rep(graph, naive_cache, starts,
                                          kOocRounds, seed, naive_tracker);
    naive_s += naive.seconds;

    // Contract v4 cross-check: the two sides walked the same lanes, so
    // tokens AND the full visited set must agree exactly.
    bool match = engine.num_visited() == naive.num_visited &&
                 std::equal(naive.tokens.begin(), naive.tokens.end(),
                            engine.tokens().begin());
    for (Vertex v = 0; match && v < graph.num_vertices(); ++v) {
      match = engine.visited(v) == naive_tracker.visited(v);
    }
    if (!match) {
      std::fprintf(stderr,
                   "OOC MISMATCH rep %d: block engine and naive walker "
                   "diverged (visited %llu vs %llu)\n",
                   rep, static_cast<unsigned long long>(engine.num_visited()),
                   static_cast<unsigned long long>(naive.num_visited));
      report.visited_match = false;
    }
  }

  const double steps = static_cast<double>(kOocRounds) * kOocK * kOocReps;
  report.block_steps_per_s = steps / block_s;
  report.naive_steps_per_s = steps / naive_s;
  report.ratio = report.block_steps_per_s / report.naive_steps_per_s;
  report.block_cache = engine.cache_stats();
  report.naive_cache = naive_cache.stats();

  std::printf("out-of-core walking, margulis n=%llu (8 MiB targets, "
              "%llu-byte budget), k=%u, %llu rounds x %d reps:\n",
              static_cast<unsigned long long>(report.n),
              static_cast<unsigned long long>(kOocBudget), kOocK,
              static_cast<unsigned long long>(kOocRounds), kOocReps);
  std::printf("%-14s %15s %12s %12s %16s\n", "schedule", "steps/s",
              "ext loads", "hits", "bytes loaded");
  std::printf("%-14s %14.1fM %12llu %12llu %16llu\n", "block",
              report.block_steps_per_s / 1e6,
              static_cast<unsigned long long>(report.block_cache.loads),
              static_cast<unsigned long long>(report.block_cache.hits),
              static_cast<unsigned long long>(report.block_cache.bytes_loaded));
  std::printf("%-14s %14.1fM %12llu %12llu %16llu\n", "naive-4K",
              report.naive_steps_per_s / 1e6,
              static_cast<unsigned long long>(report.naive_cache.loads),
              static_cast<unsigned long long>(report.naive_cache.hits),
              static_cast<unsigned long long>(report.naive_cache.bytes_loaded));
  std::printf("ratio %.2fx, end states %s\n\n", report.ratio,
              report.visited_match ? "identical" : "DIVERGED");
  std::remove(path.c_str());
  return report;
}

void write_ooc_json(const OocReport& r, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"schema\": \"manywalks-ooc-v1\",\n"
      << "  \"metric\": \"token-steps per second, run_for_steps, "
         "out-of-core CSR at 4x the extent budget\",\n"
      << "  \"instance\": {\"family\": \"margulis\", \"n\": " << r.n
      << ", \"arcs\": " << r.arcs << ", \"block_bits\": " << kOocBlockBits
      << ", \"num_blocks\": " << r.num_blocks
      << ", \"budget_bytes\": " << kOocBudget << ", \"k\": " << kOocK
      << ", \"rounds\": " << kOocRounds << ", \"reps\": " << kOocReps
      << "},\n"
      << "  \"block\": {\"steps_per_s\": "
      << static_cast<std::uint64_t>(r.block_steps_per_s)
      << ", \"extent_loads\": " << r.block_cache.loads
      << ", \"hits\": " << r.block_cache.hits
      << ", \"evictions\": " << r.block_cache.evictions
      << ", \"bytes_loaded\": " << r.block_cache.bytes_loaded << "},\n"
      << "  \"naive\": {\"steps_per_s\": "
      << static_cast<std::uint64_t>(r.naive_steps_per_s)
      << ", \"extent_loads\": " << r.naive_cache.loads
      << ", \"hits\": " << r.naive_cache.hits
      << ", \"evictions\": " << r.naive_cache.evictions
      << ", \"bytes_loaded\": " << r.naive_cache.bytes_loaded << "},\n"
      << "  \"ratio\": " << r.ratio << ",\n"
      << "  \"visited_match\": " << (r.visited_match ? "true" : "false")
      << "\n}\n";
  std::printf("wrote %s\n\n", path.c_str());
}

/// CI gate: the block schedule must beat naive per-step paging by >= 5x
/// AND reproduce the in-core end state exactly — a perf win that breaks
/// determinism contract v4 is a regression, not a win.
bool ooc_guard_passes(const OocReport& r) {
  const bool perf = r.ratio >= 5.0;
  std::printf("ooc_guard block vs naive %.2fx (floor 5.0x) %s, end states "
              "%s\n\n",
              r.ratio, perf ? "OK" : "FAIL",
              r.visited_match ? "OK" : "FAIL");
  return perf && r.visited_match;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our flags before google-benchmark sees the command line.
  std::string ooc_out = "BENCH_ooc.json";
  bool ooc_guard = false;
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--ooc_out=", 10) == 0) {
      ooc_out = arg + 10;
    } else if (std::strcmp(arg, "--ooc_guard") == 0) {
      ooc_guard = true;
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  argc = out_argc;

  const OocReport report = run_ooc();
  write_ooc_json(report, ooc_out);
  if (ooc_guard && !ooc_guard_passes(report)) return EXIT_FAILURE;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return EXIT_FAILURE;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return EXIT_SUCCESS;
}
