// Out-of-core block-scheduled walking (determinism contract v4): mwg v2
// round-trips and index validation, BlockedGraph/ExtentCache mechanics,
// and — the heart of the contract — bit-identity of BlockWalkEngine
// against the in-core lane engine at every budget, on cover runs,
// fixed-round runs, chunked runs, lazy walks, and through the blocked
// Monte-Carlo estimators.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/families.hpp"
#include "graph/generators.hpp"
#include "mc/estimators.hpp"
#include "storage/block_store.hpp"
#include "storage/mapped_graph.hpp"
#include "storage/mwg.hpp"
#include "walk/block_engine.hpp"
#include "walk/engine.hpp"
#include "walk/walker_buckets.hpp"

namespace manywalks {
namespace {

class TempFile {
 public:
  explicit TempFile(const std::string& name)
      : path_((std::filesystem::temp_directory_path() /
               ("manywalks_test_block_" + name))
                  .string()) {
    std::remove(path_.c_str());
  }
  ~TempFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// --- mwg v2 format -----------------------------------------------------------

TEST(MwgV2, RoundTripPreservesArraysAndIndex) {
  TempFile file("v2_roundtrip.mwg");
  const Graph g = make_grid_2d(31, GridTopology::kTorus);  // n = 961
  const std::uint32_t bits = 8;  // 4 blocks of 256 vertices
  write_mwg(file.path(), g, bits);

  const MappedGraph mapped(file.path(), MappedGraph::Validate::kDeep);
  EXPECT_EQ(mapped.version(), kMwgVersionBlockIndex);
  ASSERT_TRUE(mapped.has_block_index());
  EXPECT_EQ(mapped.block_bits(), bits);
  ASSERT_EQ(mapped.num_blocks(), mwg_num_blocks(g.num_vertices(), bits));
  EXPECT_EQ(mapped.file_bytes(),
            mwg_file_bytes_v2(g.num_vertices(), g.num_arcs(), bits));

  // The index is derivable from the offsets: check it entry by entry.
  const auto offsets = g.offsets();
  const auto begins = mapped.block_arc_begin();
  const auto max_deg = mapped.block_max_degree();
  ASSERT_EQ(begins.size(), mapped.num_blocks() + 1);
  ASSERT_EQ(max_deg.size(), mapped.num_blocks());
  for (std::uint64_t b = 0; b < mapped.num_blocks(); ++b) {
    EXPECT_EQ(begins[b], offsets[b << bits]);
    Vertex expect_max = 0;
    const Vertex first = static_cast<Vertex>(b << bits);
    const Vertex last =
        std::min<Vertex>(g.num_vertices(), static_cast<Vertex>(first + (Vertex{1} << bits)));
    for (Vertex v = first; v < last; ++v) {
      expect_max = std::max(expect_max, g.degree(v));
    }
    EXPECT_EQ(max_deg[b], expect_max) << "block " << b;
  }
  EXPECT_EQ(begins[mapped.num_blocks()], g.num_arcs());

  // And the CSR arrays are exactly the v1 arrays.
  const auto mo = mapped.offsets();
  for (std::size_t i = 0; i < mo.size(); ++i) ASSERT_EQ(mo[i], offsets[i]);
  const auto gt = g.targets();
  const auto mt = mapped.targets();
  for (std::size_t i = 0; i < mt.size(); ++i) ASSERT_EQ(mt[i], gt[i]);
}

TEST(MwgV2, DefaultLibraryWriteStaysV1) {
  TempFile file("v1_default.mwg");
  write_mwg(file.path(), make_cycle(64));
  const MappedGraph mapped(file.path());
  EXPECT_EQ(mapped.version(), kMwgVersion);
  EXPECT_FALSE(mapped.has_block_index());
  EXPECT_EQ(mapped.num_blocks(), 0u);
}

TEST(MwgV2, BlockedGraphRejectsV1WithUpgradeHint) {
  TempFile file("v1_reject.mwg");
  write_mwg(file.path(), make_cycle(64));
  try {
    const BlockedGraph blocked(file.path());
    FAIL() << "BlockedGraph accepted a v1 file";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("graph convert"),
              std::string::npos)
        << "rejection should tell the user how to upgrade: " << error.what();
  }
}

TEST(MwgV2, CorruptIndexEntryRejected) {
  TempFile file("v2_corrupt.mwg");
  const Graph g = make_grid_2d(31, GridTopology::kTorus);
  write_mwg(file.path(), g, 8);
  // Flip a block_arc_begin entry (the second one) in place.
  {
    std::fstream f(file.path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    const std::uint64_t pos =
        mwg_block_index_begin(g.num_vertices(), g.num_arcs()) +
        sizeof(std::uint64_t);
    f.seekp(static_cast<std::streamoff>(pos));
    const std::uint64_t bogus = 7;
    f.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  }
  EXPECT_THROW(MappedGraph{file.path()}, std::invalid_argument);
  EXPECT_THROW(BlockedGraph{file.path()}, std::invalid_argument);
}

TEST(MwgV2, CorruptMaxDegreeRejected) {
  TempFile file("v2_corrupt_deg.mwg");
  const Graph g = make_grid_2d(31, GridTopology::kTorus);
  write_mwg(file.path(), g, 8);
  {
    std::fstream f(file.path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    const std::uint64_t blocks = mwg_num_blocks(g.num_vertices(), 8);
    const std::uint64_t pos =
        mwg_block_index_begin(g.num_vertices(), g.num_arcs()) +
        (blocks + 1) * sizeof(std::uint64_t);
    f.seekp(static_cast<std::streamoff>(pos));
    const Vertex bogus = 999;
    f.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  }
  EXPECT_THROW(MappedGraph{file.path()}, std::invalid_argument);
  EXPECT_THROW(BlockedGraph{file.path()}, std::invalid_argument);
}

TEST(MwgV2, TruncatedIndexRejected) {
  TempFile file("v2_trunc.mwg");
  const Graph g = make_grid_2d(31, GridTopology::kTorus);
  write_mwg(file.path(), g, 8);
  std::filesystem::resize_file(
      file.path(),
      mwg_file_bytes_v2(g.num_vertices(), g.num_arcs(), 8) - 4);
  EXPECT_THROW(MappedGraph{file.path()}, std::invalid_argument);
  EXPECT_THROW(BlockedGraph{file.path()}, std::invalid_argument);
}

TEST(MwgV2, BadBlockBitsRejected) {
  TempFile file("v2_badbits.mwg");
  const Graph g = make_cycle(64);
  write_mwg(file.path(), g, 4);
  {
    // reserved[0] (block_bits) sits at byte 48 of the header.
    std::fstream f(file.path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(48);
    const std::uint64_t bogus = 0;  // version 2 with block_bits 0
    f.write(reinterpret_cast<const char*>(&bogus), sizeof(bogus));
  }
  EXPECT_THROW(MappedGraph{file.path()}, std::invalid_argument);
}

TEST(MwgV2, DefaultBlockBitsPolicy) {
  EXPECT_EQ(mwg_default_block_bits(0), 12u);
  EXPECT_EQ(mwg_default_block_bits(4096), 12u);
  EXPECT_EQ(mwg_default_block_bits(1024 * 4096), 12u);
  EXPECT_EQ(mwg_default_block_bits(1024 * 4096 + 1), 13u);
  // Never exceeds the format cap, however big n gets.
  EXPECT_LE(mwg_default_block_bits(~std::uint64_t{0}), kMwgMaxBlockBits);
}

// --- BlockedGraph / ExtentCache ---------------------------------------------

TEST(BlockedGraph, GeometryMatchesMappedGraph) {
  TempFile file("geometry.mwg");
  const Graph g = make_margulis_expander(16);  // n = 256, 8-regular
  write_mwg(file.path(), g, 6);                // 4 blocks of 64 vertices
  const BlockedGraph blocked(file.path());
  const MappedGraph mapped(file.path());
  ASSERT_EQ(blocked.num_vertices(), mapped.num_vertices());
  ASSERT_EQ(blocked.num_arcs(), mapped.num_arcs());
  ASSERT_EQ(blocked.num_blocks(), mapped.num_blocks());
  for (Vertex v = 0; v < blocked.num_vertices(); ++v) {
    ASSERT_EQ(blocked.degree(v), mapped.degree(v));
  }
  for (std::uint64_t b = 0; b < blocked.num_blocks(); ++b) {
    EXPECT_EQ(blocked.block_arc_begin(b), mapped.block_arc_begin()[b]);
    EXPECT_EQ(blocked.block_max_degree(b), mapped.block_max_degree()[b]);
    EXPECT_EQ(blocked.block_of(blocked.block_first_vertex(b)), b);
  }
  // An extent read through the cache sees the same bytes as the full map.
  ExtentCache cache(blocked, 1 << 20);
  for (std::uint64_t b = 0; b < blocked.num_blocks(); ++b) {
    const std::byte* raw =
        cache.acquire(blocked.block_byte_begin(b), blocked.block_byte_end(b));
    const auto* arcs = reinterpret_cast<const Vertex*>(raw);
    const std::uint64_t arc0 = blocked.block_arc_begin(b);
    const std::uint64_t arc1 = blocked.block_arc_begin(b + 1);
    for (std::uint64_t a = arc0; a < arc1; ++a) {
      ASSERT_EQ(arcs[a - arc0], mapped.targets()[a]);
    }
  }
}

TEST(ExtentCache, LruAccountingAndEviction) {
  TempFile file("cache.mwg");
  const Graph g = make_margulis_expander(16);  // 2048 arcs, 8 KiB targets
  write_mwg(file.path(), g, 6);                // 4 blocks of 2 KiB extents
  const BlockedGraph blocked(file.path());
  const std::uint64_t extent = blocked.block_byte_end(0) -
                               blocked.block_byte_begin(0);  // 2 KiB, regular

  // Budget for exactly two extents: the third load evicts the oldest.
  ExtentCache cache(blocked, 2 * extent);
  auto get = [&](std::uint64_t b) {
    return cache.acquire(blocked.block_byte_begin(b),
                         blocked.block_byte_end(b));
  };
  get(0);
  get(1);
  EXPECT_EQ(cache.stats().loads, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  get(0);  // hit, refreshes LRU position
  EXPECT_EQ(cache.stats().hits, 1u);
  get(2);  // evicts block 1 (block 0 was refreshed)
  EXPECT_EQ(cache.stats().evictions, 1u);
  get(0);  // still resident
  EXPECT_EQ(cache.stats().hits, 2u);
  get(1);  // reload
  EXPECT_EQ(cache.stats().loads, 4u);
  EXPECT_LE(cache.stats().resident_bytes, 2 * extent);
  EXPECT_EQ(cache.stats().peak_resident_bytes, 2 * extent);
}

TEST(ExtentCache, OversizedExtentStaysResident) {
  TempFile file("cache_big.mwg");
  const Graph g = make_margulis_expander(16);
  write_mwg(file.path(), g, 6);
  const BlockedGraph blocked(file.path());
  // Budget of 1 byte: every extent exceeds it, yet each acquire must
  // still serve a live mapping (the newest extent never self-evicts).
  ExtentCache cache(blocked, 1);
  for (std::uint64_t b = 0; b < blocked.num_blocks(); ++b) {
    const std::byte* raw =
        cache.acquire(blocked.block_byte_begin(b), blocked.block_byte_end(b));
    ASSERT_NE(raw, nullptr);
  }
  EXPECT_EQ(cache.stats().loads, blocked.num_blocks());
  EXPECT_EQ(cache.stats().evictions, blocked.num_blocks() - 1);
}

TEST(WalkerBuckets, StableAscendingOrder) {
  // Tokens across 3 of 4 blocks (bits = 2, 4 vertices per block); lanes
  // with no rounds left are skipped entirely.
  const std::vector<Vertex> tokens = {13, 2, 5, 1, 13, 6};
  const std::vector<std::uint32_t> rounds = {1, 1, 1, 0, 2, 3};
  WalkerBuckets buckets;
  buckets.rebuild(tokens, rounds, /*block_bits=*/2, /*num_blocks=*/4);
  const auto touched = buckets.touched_blocks();
  ASSERT_EQ(touched.size(), 3u);
  EXPECT_EQ(touched[0], 0u);  // vertex 2 (lane 1); lane 3 is spent
  EXPECT_EQ(touched[1], 1u);  // vertices 5, 6
  EXPECT_EQ(touched[2], 3u);  // vertex 13 twice
  const auto b0 = buckets.lanes_in(0);
  ASSERT_EQ(b0.size(), 1u);
  EXPECT_EQ(b0[0], 1u);
  const auto b1 = buckets.lanes_in(1);
  ASSERT_EQ(b1.size(), 2u);
  EXPECT_EQ(b1[0], 2u);
  EXPECT_EQ(b1[1], 5u);
  const auto b3 = buckets.lanes_in(3);
  ASSERT_EQ(b3.size(), 2u);
  EXPECT_EQ(b3[0], 0u);
  EXPECT_EQ(b3[1], 4u);
  EXPECT_EQ(buckets.active_lanes(), 5u);
}

// --- the v4 contract: out-of-core == in-core, bit for bit --------------------

struct Instance {
  const char* name;
  Graph graph;
  std::uint32_t block_bits;
};

std::vector<Instance> contract_instances() {
  std::vector<Instance> instances;
  instances.push_back({"torus31", make_grid_2d(31, GridTopology::kTorus), 7});
  instances.push_back({"margulis16", make_margulis_expander(16), 5});
  instances.push_back({"cycle1000", make_cycle(1001), 8});
  return instances;
}

/// Budgets spanning the cache regimes: thrash (every extent oversized),
/// partial residency, and everything-resident. Contract v4 says the walk
/// results cannot depend on which one is used.
const std::uint64_t kBudgets[] = {1, 4096, 1ull << 30};

void expect_same_end_state(const WalkEngine& in_core,
                           const BlockWalkEngine& blocked) {
  ASSERT_EQ(in_core.num_visited(), blocked.num_visited());
  const auto a = in_core.tokens();
  const auto b = blocked.tokens();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
  for (Vertex v = 0; v < in_core.num_visited(); ++v) {
    ASSERT_EQ(in_core.visited(v), blocked.visited(v)) << "vertex " << v;
  }
}

TEST(BlockEngineContract, CoverBitIdenticalAtEveryBudget) {
  for (auto& [name, graph, bits] : contract_instances()) {
    SCOPED_TRACE(name);
    TempFile file(std::string("cover_") + name + ".mwg");
    write_mwg(file.path(), graph, bits);
    const BlockedGraph blocked(file.path());
    WalkEngine in_core(graph);
    const auto target = static_cast<Vertex>(graph.num_vertices() * 9 / 10);
    for (unsigned k : {1u, 8u, 64u}) {
      const std::vector<Vertex> starts(k, 0);
      for (std::uint64_t trial = 0; trial < 4; ++trial) {
        Rng rng_a = make_trial_rng(0xb10cULL, trial);
        in_core.reset(starts);
        const CoverSample expect =
            in_core.run_until_visited(target, rng_a);
        for (const std::uint64_t budget : kBudgets) {
          BlockWalkEngine engine(blocked, budget);
          Rng rng_b = make_trial_rng(0xb10cULL, trial);
          engine.reset(starts);
          const CoverSample got =
              engine.run_until_visited(target, rng_b);
          ASSERT_EQ(expect.steps, got.steps)
              << "k=" << k << " trial=" << trial << " budget=" << budget;
          ASSERT_EQ(expect.covered, got.covered);
          ASSERT_EQ(rng_a.state(), rng_b.state())
              << "master RNG must advance identically";
          expect_same_end_state(in_core, engine);
        }
      }
    }
  }
}

TEST(BlockEngineContract, StepCapTruncation) {
  // Caps below, at, just past, and beyond one horizon: sample.steps and
  // the end state must match the in-core run under the same cap.
  const Graph graph = make_grid_2d(31, GridTopology::kTorus);
  TempFile file("cap.mwg");
  write_mwg(file.path(), graph, 7);
  const BlockedGraph blocked(file.path());
  WalkEngine in_core(graph);
  const std::vector<Vertex> starts(8, 0);
  for (const std::uint64_t cap : {0ull, 3ull, 64ull, 65ull, 100ull}) {
    SCOPED_TRACE(cap);
    CoverOptions options;
    options.step_cap = cap;
    Rng rng_a(99);
    in_core.reset(starts);
    const CoverSample expect =
        in_core.run_until_visited(graph.num_vertices(), rng_a, options);
    BlockWalkEngine engine(blocked, 4096);
    Rng rng_b(99);
    engine.reset(starts);
    const CoverSample got =
        engine.run_until_visited(graph.num_vertices(), rng_b, options);
    EXPECT_EQ(expect.steps, got.steps);
    EXPECT_EQ(expect.covered, got.covered);
    expect_same_end_state(in_core, engine);
  }
}

TEST(BlockEngineContract, TargetHitMidHorizon) {
  // A tiny target is covered in the first few rounds — inside the first
  // asynchronous horizon — so the replay path must recover the exact
  // covering round.
  const Graph graph = make_margulis_expander(16);
  TempFile file("midblock.mwg");
  write_mwg(file.path(), graph, 5);
  const BlockedGraph blocked(file.path());
  WalkEngine in_core(graph);
  const std::vector<Vertex> starts(4, 0);
  for (Vertex target = 5; target <= 45; target += 10) {
    SCOPED_TRACE(target);
    Rng rng_a(7);
    in_core.reset(starts);
    const CoverSample expect =
        in_core.run_until_visited(target, rng_a);
    BlockWalkEngine engine(blocked, 1 << 20);
    Rng rng_b(7);
    engine.reset(starts);
    const CoverSample got =
        engine.run_until_visited(target, rng_b);
    EXPECT_EQ(expect.steps, got.steps);
    EXPECT_EQ(expect.covered, got.covered);
    EXPECT_LT(got.steps, kBlockHorizon) << "test wants a mid-horizon hit";
  }
}

TEST(BlockEngineContract, BlockBoundaryStarts) {
  // Walkers starting on the first and last vertex of each block — the
  // bucketing corner where off-by-one block assignment would show.
  const Graph graph = make_grid_2d(31, GridTopology::kTorus);
  TempFile file("boundary.mwg");
  write_mwg(file.path(), graph, 7);  // 128-vertex blocks, n = 961
  const BlockedGraph blocked(file.path());
  std::vector<Vertex> starts;
  for (std::uint64_t b = 0; b < blocked.num_blocks(); ++b) {
    const Vertex first = blocked.block_first_vertex(b);
    const Vertex last = std::min<Vertex>(
        graph.num_vertices() - 1,
        static_cast<Vertex>(first + (Vertex{1} << 7) - 1));
    starts.push_back(first);
    starts.push_back(last);
  }
  WalkEngine in_core(graph);
  Rng rng_a(3);
  in_core.reset(starts);
  in_core.run_for_steps(200, rng_a);
  BlockWalkEngine engine(blocked, 4096);
  Rng rng_b(3);
  engine.reset(starts);
  engine.run_for_steps(200, rng_b);
  expect_same_end_state(in_core, engine);
}

TEST(BlockEngineContract, RunForStepsChunkingEquivalent) {
  const Graph graph = make_margulis_expander(16);
  TempFile file("chunks.mwg");
  write_mwg(file.path(), graph, 5);
  const BlockedGraph blocked(file.path());
  const std::vector<Vertex> starts(16, 3);

  BlockWalkEngine combined(blocked, 1 << 16);
  Rng rng_a(11);
  combined.reset(starts);
  combined.run_for_steps(100, rng_a);

  BlockWalkEngine chunked(blocked, 1 << 16);
  Rng rng_b(11);
  chunked.reset(starts);
  chunked.run_for_steps(1, rng_b);
  chunked.run_for_steps(63, rng_b);
  chunked.run_for_steps(0, rng_b);  // no-op, consumes no draws
  chunked.run_for_steps(36, rng_b);

  ASSERT_EQ(combined.num_visited(), chunked.num_visited());
  const auto a = combined.tokens();
  const auto b = chunked.tokens();
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
  EXPECT_EQ(rng_a.state(), rng_b.state());
}

TEST(BlockEngineContract, LazyWalkBitIdentical) {
  const Graph graph = make_grid_2d(31, GridTopology::kTorus);
  TempFile file("lazy.mwg");
  write_mwg(file.path(), graph, 7);
  const BlockedGraph blocked(file.path());
  WalkEngine in_core(graph);
  const std::vector<Vertex> starts(8, 0);
  CoverOptions options;
  options.laziness = 0.3;
  options.step_cap = 500;
  Rng rng_a(21);
  in_core.reset(starts);
  const CoverSample expect =
      in_core.run_until_visited(graph.num_vertices(), rng_a, options);
  BlockWalkEngine engine(blocked, 4096);
  Rng rng_b(21);
  engine.reset(starts);
  const CoverSample got =
      engine.run_until_visited(graph.num_vertices(), rng_b, options);
  EXPECT_EQ(expect.steps, got.steps);
  EXPECT_EQ(expect.covered, got.covered);
  expect_same_end_state(in_core, engine);
}

// --- blocked estimators ------------------------------------------------------

TEST(BlockedEstimators, CoverEstimateMatchesInCore) {
  const Graph graph = make_margulis_expander(16);
  TempFile file("est_cover.mwg");
  write_mwg(file.path(), graph, 5);
  const BlockedGraph blocked(file.path());

  McOptions mc;
  mc.min_trials = 8;
  mc.max_trials = 12;
  mc.seed = 0xabcdULL;
  const McResult expect = estimate_k_cover_time(
      graph, /*start=*/0, /*k=*/8, mc, CoverOptions{}, nullptr);

  BlockWalkEngine engine(blocked, 4096);
  const McResult got = estimate_cover_to_target_blocked(
      engine, /*start=*/0, /*k=*/8, graph.num_vertices(), mc);
  EXPECT_EQ(expect.ci.count, got.ci.count);
  EXPECT_EQ(expect.ci.mean, got.ci.mean);
  EXPECT_EQ(expect.ci.half_width, got.ci.half_width);
  EXPECT_EQ(expect.censored, got.censored);
}

TEST(BlockedEstimators, SpeedupCurveMatchesInCore) {
  const Graph graph = make_margulis_expander(16);
  TempFile file("est_curve.mwg");
  write_mwg(file.path(), graph, 5);
  const BlockedGraph blocked(file.path());
  const CsrSubstrate substrate(graph);
  const auto target = static_cast<Vertex>(graph.num_vertices() * 9 / 10);
  const std::vector<unsigned> ks = {1, 2, 4, 8};

  McOptions mc;
  mc.min_trials = 8;
  mc.max_trials = 8;
  mc.seed = 0x5eedULL;
  const auto expect = estimate_speedup_curve_to_target(
      substrate, 0, target, ks, mc, CoverOptions{}, nullptr);

  BlockWalkEngine engine(blocked, 1 << 14);
  const auto got = estimate_speedup_curve_to_target_blocked(
      engine, 0, target, ks, mc);
  ASSERT_EQ(expect.size(), got.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    SCOPED_TRACE(ks[i]);
    EXPECT_EQ(expect[i].k, got[i].k);
    EXPECT_EQ(expect[i].multi.ci.mean, got[i].multi.ci.mean);
    EXPECT_EQ(expect[i].speedup, got[i].speedup);
    EXPECT_EQ(expect[i].half_width, got[i].half_width);
  }
}

}  // namespace
}  // namespace manywalks
