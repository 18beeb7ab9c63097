// Out-of-core block-scheduled walking (determinism contract v4): mwg v2
// round-trips and index validation, BlockedGraph/ExtentCache mechanics,
// and — the heart of the contract — bit-identity of BlockWalkEngine
// against the in-core lane engine at every budget, on cover runs,
// fixed-round runs, chunked runs, lazy walks, and through the blocked
// Monte-Carlo estimators, which also meet the exact k-cover oracle.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/families.hpp"
#include "graph/generators.hpp"
#include "mc/estimators.hpp"
#include "storage/block_store.hpp"
#include "storage/mapped_graph.hpp"
#include "storage/mwg.hpp"
#include "theory/exact.hpp"
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

TEST(MwgV2, UnknownVersionGetsNoUpgradeHint) {
  TempFile file("v3_reject.mwg");
  write_mwg(file.path(), make_cycle(4097), 8);
  {
    // The u32 version word sits at byte 12 of the header.
    std::fstream f(file.path(),
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(12);
    const std::uint32_t v3 = 3;
    f.write(reinterpret_cast<const char*>(&v3), sizeof(v3));
  }
  // `graph convert` cannot read a version-3 file either, so no reader may
  // point there: both name the versions this build reads.
  const auto expect_version_error = [](const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("reads versions 1 and 2"), std::string::npos) << what;
    EXPECT_EQ(what.find("graph convert"), std::string::npos) << what;
  };
  try {
    const BlockedGraph blocked(file.path());
    FAIL() << "BlockedGraph accepted a version-3 file";
  } catch (const std::invalid_argument& error) {
    expect_version_error(error);
  }
  try {
    const MappedGraph mapped(file.path());
    FAIL() << "MappedGraph accepted a version-3 file";
  } catch (const std::invalid_argument& error) {
    expect_version_error(error);
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

TEST(ExtentCache, TruncatedStoreFailsCleanly) {
  TempFile file("cache_cut.mwg");
  const Graph g = make_margulis_expander(16);  // 4 blocks of 2 KiB extents
  write_mwg(file.path(), g, 6);
  const BlockedGraph blocked(file.path());
  // Every block's byte range, read from the block index before the cut
  // (the index sits at the file's tail and stays mapped; the cache itself
  // never touches it).
  std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges;
  for (std::uint64_t b = 0; b < blocked.num_blocks(); ++b) {
    ranges.emplace_back(blocked.block_byte_begin(b), blocked.block_byte_end(b));
  }
  // The store shrinks under the walk: cut it in the middle of the targets,
  // inside block 2, so block 2 reads short and block 3 reads nothing.
  const std::uint64_t cut = (ranges[2].first + ranges[2].second) / 2;
  std::filesystem::resize_file(file.path(), cut);

  ExtentCache cache(blocked, 1 << 20);
  std::size_t failures = 0;
  for (const auto& [begin, end] : ranges) {
    if (end <= cut) {
      EXPECT_NE(cache.acquire(begin, end), nullptr);
      continue;
    }
    try {
      cache.acquire(begin, end);
      ADD_FAILURE() << "extent [" << begin << "," << end
                    << ") past the cut at " << cut << " loaded";
    } catch (const MwgIoError& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find("extent [" + std::to_string(begin) + "," +
                          std::to_string(end) + ")"),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(file.path()), std::string::npos) << what;
      ++failures;
    }
  }
  EXPECT_EQ(failures, 2u);  // blocks 2 and 3 lie past the cut
  EXPECT_EQ(cache.stats().loads, 2u);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitizedAllocator = true;
#else
constexpr bool kSanitizedAllocator = false;
#endif

/// A 2-vertex v2 store whose one block holds `arcs` target words, all
/// vertex 0, left as a file hole so no adjacency bytes reach the disk. It
/// passes the header check and structure scan; it is never walked.
void write_sparse_store(const std::string& path, std::uint64_t arcs) {
  MwgHeader header{};
  std::memcpy(header.magic, kMwgMagic, sizeof(kMwgMagic));
  header.endian = kMwgEndianTag;
  header.version = kMwgVersionBlockIndex;
  header.num_vertices = 2;
  header.num_arcs = arcs;
  header.min_degree = header.max_degree = static_cast<Vertex>(arcs / 2);
  header.reserved[0] = 1;  // one block of both vertices
  const std::uint64_t offsets[] = {0, arcs / 2, arcs};
  const std::uint64_t block_arc_begin[] = {0, arcs};
  const Vertex block_max_degree[] = {header.max_degree};
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  out.write(reinterpret_cast<const char*>(offsets), sizeof(offsets));
  out.seekp(static_cast<std::streamoff>(mwg_block_index_begin(2, arcs)));
  out.write(reinterpret_cast<const char*>(block_arc_begin),
            sizeof(block_arc_begin));
  out.write(reinterpret_cast<const char*>(block_max_degree),
            sizeof(block_max_degree));
}

/// Caps the address space 64 MiB above the process's current size, then
/// acquires `graph`'s block 0. Returns 0 if that throws MwgIoError (its
/// what() goes to stderr), 1 if the acquire succeeds, 2 if the cap
/// cannot be set.
int acquire_block0_under_address_cap(const BlockedGraph& graph) {
  std::uint64_t pages = 0;
  std::ifstream("/proc/self/statm") >> pages;
  const auto cap = static_cast<rlim_t>(
      pages * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE)) +
      (std::uint64_t{64} << 20));
  const rlimit limit{cap, cap};
  if (::setrlimit(RLIMIT_AS, &limit) != 0) return 2;
  ExtentCache cache(graph, std::uint64_t{1} << 30);
  try {
    cache.acquire(graph.block_byte_begin(0), graph.block_byte_end(0));
  } catch (const MwgIoError& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 0;
  }
  return 1;
}

TEST(ExtentCache, UnallocatableBufferFailsCleanly) {
  if (kSanitizedAllocator) {
    GTEST_SKIP() << "sanitizer allocators abort under an address-space cap";
  }
  TempFile file("cache_nomem.mwg");
  write_sparse_store(file.path(), std::uint64_t{1} << 26);  // 256 MiB extent
  const BlockedGraph blocked(file.path());
  ASSERT_EQ(blocked.num_blocks(), 1u);
  // A budget the machine cannot honor: the read buffer cannot be
  // allocated, and that must be a clean MwgIoError, not std::bad_alloc.
  EXPECT_EXIT(std::_Exit(acquire_block0_under_address_cap(blocked)),
              ::testing::ExitedWithCode(0), "cannot allocate 268435456 bytes");
}

// --- reader agreement --------------------------------------------------------
//
// MappedGraph and BlockedGraph share one header check and one structure
// scan, so on any stored input they must agree: both accept, or both
// throw std::invalid_argument with the same what() (MW_REQUIRE embeds the
// checking file and line, so two copies of a rule cannot pass this).

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// what() of the std::invalid_argument `open` throws; "" if it accepts.
template <class Open>
std::string rejection(Open open) {
  try {
    open();
  } catch (const std::invalid_argument& error) {
    return error.what();
  }
  return "";
}

TEST(MwgReaders, AgreeOnEveryMutant) {
  // A 40-cycle with one self loop (odd arc count, so the index section
  // starts after 4 bytes of padding) in 3 blocks of up to 16 vertices:
  // degrees 3 and 2, block maxima 3, 2, 2.
  GraphBuilder builder(40);
  for (Vertex v = 0; v < 40; ++v) builder.add_edge(v, (v + 1) % 40);
  builder.add_edge(0, 0);
  GraphBuilder::BuildOptions options;
  options.loops = GraphBuilder::LoopPolicy::kKeep;
  const Graph g = builder.build(options);
  constexpr std::uint32_t kBits = 4;
  TempFile file("agree.mwg");
  write_mwg(file.path(), g, kBits);
  const std::string clean = read_file(file.path());

  const std::uint64_t n = g.num_vertices();
  const std::uint64_t arcs = g.num_arcs();
  const std::uint64_t blocks = mwg_num_blocks(n, kBits);
  ASSERT_GE(blocks, 3u);
  const std::uint64_t targets_begin = mwg_targets_begin(n);
  const std::uint64_t targets_end = mwg_file_bytes(n, arcs);
  const std::uint64_t index_begin = mwg_block_index_begin(n, arcs);
  ASSERT_LT(targets_end, index_begin);
  const std::uint64_t max_degree_begin =
      index_begin + (blocks + 1) * sizeof(std::uint64_t);
  ASSERT_EQ(clean.size(), max_degree_begin + blocks * sizeof(Vertex));

  struct Mutant {
    std::string name;
    std::function<void(std::string&)> apply;
  };
  const auto put = [](std::uint64_t at, auto value) {
    return [at, value](std::string& bytes) {
      std::memcpy(bytes.data() + at, &value, sizeof(value));
    };
  };
  const auto offset_word = [&](std::uint64_t v) {
    return mwg_offsets_begin() + v * sizeof(std::uint64_t);
  };
  std::vector<Mutant> mutants = {
      {"magic", put(0, 'X')},
      {"endian byte-swapped", put(8, std::uint32_t{0x04030201u})},
      {"endian garbage", put(8, std::uint32_t{0xdeadbeefu})},
      {"version 1", put(12, std::uint32_t{1})},
      {"version 3", put(12, std::uint32_t{3})},
      {"n + 1", put(16, std::uint64_t{n + 1})},
      {"n = 2^32", put(16, std::uint64_t{1} << 32)},
      {"num_arcs + 1", put(24, std::uint64_t{arcs + 1})},
      {"num_loops > num_arcs", put(32, std::uint64_t{arcs + 1})},
      {"min_degree", put(40, std::uint32_t{1})},
      {"max_degree", put(44, std::uint32_t{4})},
      {"block_bits 0", put(48, std::uint64_t{0})},
      {"block_bits 40", put(48, std::uint64_t{40})},
      {"reserved[1]", put(56, std::uint64_t{1})},
      {"first offset", put(offset_word(0), std::uint64_t{1})},
      {"middle offset", put(offset_word(n / 2), ~std::uint64_t{0})},
      {"last offset", put(offset_word(n), std::uint64_t{arcs - 1})},
      {"block_arc_begin[1]",
       put(index_begin + sizeof(std::uint64_t), std::uint64_t{7})},
      {"block_max_degree[1]", put(max_degree_begin + sizeof(Vertex),
                                  Vertex{3})},
      {"index end", put(index_begin + blocks * sizeof(std::uint64_t),
                        std::uint64_t{arcs + 1})},
      {"truncated inside offsets",
       [&](std::string& bytes) { bytes.resize(offset_word(n / 2) + 4); }},
  };
  const std::uint64_t boundaries[] = {
      0,           kMwgHeaderBytes,  targets_begin,    targets_end,
      index_begin, max_degree_begin, clean.size()};
  for (const std::uint64_t at : boundaries) {
    if (at < clean.size()) {
      mutants.push_back({"truncated at " + std::to_string(at),
                         [at](std::string& bytes) { bytes.resize(at); }});
    }
    mutants.push_back(
        {"padded at " + std::to_string(at),
         [at](std::string& bytes) { bytes.insert(at, 1, '\0'); }});
  }

  const auto open_mapped = [&] { const MappedGraph g2(file.path()); };
  const auto open_blocked = [&] { const BlockedGraph g2(file.path()); };
  EXPECT_EQ(rejection(open_mapped), "");
  EXPECT_EQ(rejection(open_blocked), "");
  for (const Mutant& mutant : mutants) {
    SCOPED_TRACE(mutant.name);
    std::string bytes = clean;
    mutant.apply(bytes);
    ASSERT_NE(bytes, clean);
    write_file(file.path(), bytes);
    const std::string mapped = rejection(open_mapped);
    EXPECT_NE(mapped, "") << "MappedGraph accepted the mutant";
    EXPECT_EQ(rejection(open_blocked), mapped);
  }

  // A plausible lie about the loop count needs the targets to catch, so
  // only the deep load (which reads them) rejects it.
  std::string lying_loops = clean;
  put(32, std::uint64_t{0})(lying_loops);
  write_file(file.path(), lying_loops);
  EXPECT_EQ(rejection(open_mapped), "");
  EXPECT_EQ(rejection(open_blocked), "");
  EXPECT_NE(rejection([&] {
              const MappedGraph g2(file.path(), MappedGraph::Validate::kDeep);
            }),
            "");
}

/// Lines of /proc/self/maps backed by `path`: the kernel's count of this
/// process's live mappings of the file.
std::size_t live_mappings(const std::string& path) {
  const std::string canonical = std::filesystem::canonical(path).string();
  std::ifstream maps("/proc/self/maps");
  std::size_t count = 0;
  for (std::string line; std::getline(maps, line);) {
    if (line.ends_with(" " + canonical)) ++count;
  }
  return count;
}

TEST(MwgReaders, MovedFromReadersUnmapEachMappingOnce) {
  TempFile file("moves.mwg");
  const Graph g = make_margulis_expander(16);  // n = 256, 4 blocks
  write_mwg(file.path(), g, 6);
  ASSERT_EQ(live_mappings(file.path()), 0u);

  {
    std::optional<MappedGraph> source(std::in_place, file.path());
    const std::size_t mapped = live_mappings(file.path());
    ASSERT_GT(mapped, 0u);
    const MappedGraph moved(std::move(*source));
    source.reset();  // a moved-from reader must not unmap
    EXPECT_EQ(live_mappings(file.path()), mapped);
    for (std::uint64_t a = 0; a < g.num_arcs(); ++a) {
      ASSERT_EQ(moved.targets()[a], g.targets()[a]);
    }
  }
  EXPECT_EQ(live_mappings(file.path()), 0u);

  {
    std::optional<BlockedGraph> source(std::in_place, file.path());
    const std::size_t mapped = live_mappings(file.path());
    ASSERT_GT(mapped, 0u);
    BlockedGraph moved(std::move(*source));
    source.reset();  // ...nor close the descriptor extents map from
    EXPECT_EQ(live_mappings(file.path()), mapped);
    for (Vertex v = 0; v < g.num_vertices(); ++v) {
      ASSERT_EQ(moved.degree(v), g.degree(v));
    }

    {
      // Extents are read into the cache's own buffers: acquiring every
      // block adds no mapping and returns exactly the stored targets.
      ExtentCache cache(moved, 1 << 20);
      std::vector<const Vertex*> blocks;
      for (std::uint64_t b = 0; b < moved.num_blocks(); ++b) {
        blocks.push_back(reinterpret_cast<const Vertex*>(cache.acquire(
            moved.block_byte_begin(b), moved.block_byte_end(b))));
      }
      EXPECT_EQ(live_mappings(file.path()), mapped);
      for (std::uint64_t b = 0; b < moved.num_blocks(); ++b) {
        const std::uint64_t arc0 = moved.block_arc_begin(b);
        for (std::uint64_t a = arc0; a < moved.block_arc_begin(b + 1); ++a) {
          ASSERT_EQ(blocks[b][a - arc0], g.targets()[a]) << "arc " << a;
        }
      }
    }
    // The reader's own mappings are untouched.
    EXPECT_EQ(live_mappings(file.path()), mapped);
  }
  EXPECT_EQ(live_mappings(file.path()), 0u);
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

TEST(BlockEngineContract, AlternatingSweepsHitTheCache) {
  // 16 blocks of 8 KiB extents under a budget of 4 extents, with walkers
  // on every block: an ascending-only sweep is the cyclic pattern on which
  // LRU never hits. Alternating the sweep direction starts each pass on
  // the blocks the previous pass left resident, and moves no result.
  const Graph graph = make_margulis_expander(64);  // n = 4096, 8-regular
  TempFile file("sweep.mwg");
  write_mwg(file.path(), graph, 8);
  const BlockedGraph blocked(file.path());
  ASSERT_EQ(blocked.num_blocks(), 16u);
  const std::uint64_t extent =
      blocked.block_byte_end(0) - blocked.block_byte_begin(0);
  std::vector<Vertex> starts;
  for (Vertex v = 0; v < graph.num_vertices(); v += 8) starts.push_back(v);

  WalkEngine in_core(graph);
  Rng rng_a(5);
  in_core.reset(starts);
  in_core.run_for_steps(kBlockHorizon, rng_a);
  BlockWalkEngine engine(blocked, 4 * extent);
  Rng rng_b(5);
  engine.reset(starts);
  engine.run_for_steps(kBlockHorizon, rng_b);
  expect_same_end_state(in_core, engine);
  EXPECT_EQ(rng_a.state(), rng_b.state());
  EXPECT_EQ(engine.stats().horizons, 1u);
  EXPECT_GT(engine.stats().bucket_passes, 1u);
  // Every block visit is one acquire. An ascending-only sweep serves 2 of
  // this run's 620 visits from the cache; alternation serves 151.
  const ExtentCache::Stats& cache = engine.cache_stats();
  EXPECT_EQ(cache.loads + cache.hits, engine.stats().block_visits);
  EXPECT_GT(cache.hits, 0u);
  EXPECT_GT(10 * cache.hits, engine.stats().block_visits);
  EXPECT_LE(cache.peak_resident_bytes, 4 * extent);
}

// --- the cover funnel over the out-of-core source ---------------------------

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
  BlockedRunTotals totals;
  const McResult got =
      estimate_cover(OutOfCore{engine, &totals}, /*k=*/8,
                     same_vertex_starts(0), graph.num_vertices(), mc);
  EXPECT_EQ(expect.ci.count, got.ci.count);
  EXPECT_EQ(expect.ci.mean, got.ci.mean);
  EXPECT_EQ(expect.ci.half_width, got.ci.half_width);
  EXPECT_EQ(expect.censored, got.censored);
  EXPECT_EQ(totals.trials, got.ci.count);
  EXPECT_GT(totals.cache_loads, 0u);

  // The perfbench entry point forwards to the same funnel.
  BlockWalkEngine again(blocked, 4096);
  const McResult forwarded = estimate_cover_to_target_blocked(
      again, /*start=*/0, /*k=*/8, graph.num_vertices(), mc);
  EXPECT_EQ(expect.ci.mean, forwarded.ci.mean);
  EXPECT_EQ(expect.ci.half_width, forwarded.ci.half_width);
}

TEST(BlockedEstimators, SpeedupCurveMatchesInCore) {
  const Graph graph = make_margulis_expander(16);
  TempFile file("est_curve.mwg");
  write_mwg(file.path(), graph, 5);
  const BlockedGraph blocked(file.path());
  const auto target = static_cast<Vertex>(graph.num_vertices() * 9 / 10);
  const std::vector<unsigned> ks = {1, 2, 4, 8};

  McOptions mc;
  mc.min_trials = 8;
  mc.max_trials = 8;
  mc.seed = 0x5eedULL;
  const auto expect = estimate_speedup_curve_to_target(
      InCore(CsrSubstrate(graph)), 0, target, ks, mc, CoverOptions{}, nullptr);

  BlockWalkEngine engine(blocked, 1 << 14);
  const auto got = estimate_speedup_curve_to_target(OutOfCore{engine}, 0,
                                                    target, ks, mc);
  ASSERT_EQ(expect.size(), got.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    SCOPED_TRACE(ks[i]);
    EXPECT_EQ(expect[i].k, got[i].k);
    EXPECT_EQ(expect[i].multi.ci.mean, got[i].multi.ci.mean);
    EXPECT_EQ(expect[i].speedup, got[i].speedup);
    EXPECT_EQ(expect[i].half_width, got[i].half_width);
  }
}

TEST(BlockedEstimators, DrawnStartsMatchInCore) {
  // Random placements draw their starts from the trial stream before the
  // engine draws its lanes; both sources must consume it identically.
  const Graph graph = make_barbell(33);
  TempFile file("est_starts.mwg");
  write_mwg(file.path(), graph, 4);
  const BlockedGraph blocked(file.path());
  McOptions mc;
  mc.min_trials = 6;
  mc.max_trials = 6;
  mc.seed = 0x57a7ULL;
  const InCore in_core{CsrSubstrate(graph)};
  BlockWalkEngine engine(blocked, 2048);
  const OutOfCore out_of_core{engine};
  const Vertex n = graph.num_vertices();

  const auto stationary = stationary_starts(graph.offsets());
  EXPECT_EQ(estimate_cover(in_core, 4, stationary, n, mc).ci.mean,
            estimate_cover(out_of_core, 4, stationary, n, mc).ci.mean);
  EXPECT_EQ(estimate_cover(in_core, 4, uniform_starts(n), n, mc).ci.mean,
            estimate_cover(out_of_core, 4, uniform_starts(n), n, mc).ci.mean);
  EXPECT_EQ(estimate_stationary_start_cover(graph, 4, mc).ci.mean,
            estimate_cover(out_of_core, 4, stationary, n, mc).ci.mean);
}

// --- the out-of-core source against the exact oracle ------------------------

TEST(BlockedEstimators, MatchesExactKCoverOracleUnderEvictions) {
  // The check tests/test_estimators.cpp makes for the in-core source:
  // Monte Carlo within 4 half-widths of exact_k_cover_time. Two-vertex
  // blocks and a budget below the graph's total extent bytes make the
  // trials keep evicting. Each eviction is an unmap, so every budget is the
  // largest that still forces evictions, to keep the test quick.
  const auto check = [](const char* name, const Graph& graph,
                        const std::vector<Vertex>& starts,
                        std::uint64_t budget) {
    SCOPED_TRACE(name);
    TempFile file(std::string("oracle_") + name + ".mwg");
    write_mwg(file.path(), graph, /*block_bits=*/1);
    const BlockedGraph blocked(file.path());
    BlockWalkEngine engine(blocked, budget);
    BlockedRunTotals totals;
    McOptions mc;
    mc.min_trials = 2000;
    mc.max_trials = 2000;
    mc.seed = 11;
    const McResult got =
        estimate_cover(OutOfCore{engine, &totals}, starts.size(),
                       fixed_starts(starts), graph.num_vertices(), mc);
    const double exact = exact_k_cover_time(graph, starts);
    EXPECT_NEAR(got.ci.mean, exact, 4.0 * got.ci.half_width + 1e-9);
    EXPECT_EQ(got.censored, 0u);
    EXPECT_GT(totals.cache_evictions, 0u);
  };
  check("cycle9_k2", make_cycle(9), {0, 0}, 64);
  check("k4_k2", make_complete(4), {0, 0}, 32);
  check("cycle5_starts_0_2", make_cycle(5), {0, 2}, 32);
}

}  // namespace
}  // namespace manywalks
