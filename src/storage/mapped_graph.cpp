#include "storage/mapped_graph.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <system_error>
#include <utility>

#include "util/check.hpp"

namespace manywalks {

namespace {

constexpr std::uint32_t byte_swap32(std::uint32_t x) noexcept {
  return ((x & 0x000000ffu) << 24) | ((x & 0x0000ff00u) << 8) |
         ((x & 0x00ff0000u) >> 8) | ((x & 0xff000000u) >> 24);
}

/// Thread-safe strerror: std::strerror's static buffer is flagged by
/// concurrency-mt-unsafe, and MappedGraph loads can legitimately race
/// (e.g. a future `manywalks serve` opening graphs from worker threads).
std::string errno_message(int err) {
  return std::error_code(err, std::generic_category()).message();
}

}  // namespace

MappedGraph::MappedGraph(const std::string& path, Validate validate)
    : path_(path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw MwgIoError("cannot open '" + path + "': " + errno_message(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw MwgIoError("cannot stat '" + path + "': " + errno_message(err));
  }
  const auto file_bytes = static_cast<std::uint64_t>(st.st_size);
  if (file_bytes < kMwgHeaderBytes) {
    ::close(fd);
    MW_REQUIRE(false, "'" << path << "' is not an mwg file: " << file_bytes
                          << " bytes is smaller than the " << kMwgHeaderBytes
                          << "-byte header");
  }
  void* base = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  const int map_err = errno;
  ::close(fd);  // the mapping keeps its own reference to the file
  if (base == MAP_FAILED) {
    throw MwgIoError("mmap of '" + path +
                     "' failed: " + errno_message(map_err));
  }
  base_ = base;
  mapped_bytes_ = file_bytes;

  std::memcpy(&header_, base_, sizeof(MwgHeader));
  // Validate before touching anything the header points at; the destructor
  // unmaps on throw (MappedGraph is fully constructed member-wise by now,
  // but MW_REQUIRE throws from the constructor body — unmap explicitly).
  try {
    MW_REQUIRE(std::memcmp(header_.magic, kMwgMagic, sizeof(kMwgMagic)) == 0,
               "'" << path << "' is not an mwg file (bad magic)");
    MW_REQUIRE(header_.endian != byte_swap32(kMwgEndianTag),
               "'" << path << "' was written on a machine with the opposite "
                   "byte order; regenerate it natively");
    MW_REQUIRE(header_.endian == kMwgEndianTag,
               "'" << path << "' has an unrecognized endianness tag");
    MW_REQUIRE(header_.version == kMwgVersion ||
                   header_.version == kMwgVersionBlockIndex,
               "'" << path << "' is mwg version " << header_.version
                   << "; this build reads versions " << kMwgVersion << " and "
                   << kMwgVersionBlockIndex);
    MW_REQUIRE(header_.num_vertices < kInvalidVertex,
               "'" << path << "' vertex count " << header_.num_vertices
                   << " exceeds the 32-bit vertex limit");
    // Size consistency, derived FROM the file size rather than by
    // multiplying header fields (num_arcs * 4 from a hostile header could
    // wrap modulo 2^64 and "match" a file with no adjacency at all).
    // n < 2^32 keeps mwg_targets_begin itself overflow-free.
    MW_REQUIRE(file_bytes >= mwg_targets_begin(header_.num_vertices),
               "'" << path << "' is truncated: " << file_bytes
                   << " bytes cannot hold the header and "
                   << header_.num_vertices + 1 << " row offsets");
    if (header_.version == kMwgVersion) {
      const std::uint64_t adjacency_bytes =
          file_bytes - mwg_targets_begin(header_.num_vertices);
      MW_REQUIRE(adjacency_bytes % sizeof(Vertex) == 0 &&
                     adjacency_bytes / sizeof(Vertex) == header_.num_arcs,
                 "'" << path << "' is truncated or padded: header claims "
                     << header_.num_arcs << " arcs, file has "
                     << adjacency_bytes << " adjacency bytes");
    } else {
      // v2: the file carries a trailing block index. Bound num_arcs by the
      // file size first so mwg_file_bytes_v2 below cannot overflow on a
      // hostile header, then require the exact v2 size.
      block_bits_ = static_cast<std::uint32_t>(header_.reserved[0]);
      MW_REQUIRE(header_.reserved[0] >= 1 &&
                     header_.reserved[0] <= kMwgMaxBlockBits,
                 "'" << path << "': v2 block_bits " << header_.reserved[0]
                     << " outside [1," << kMwgMaxBlockBits << "]");
      MW_REQUIRE(header_.reserved[1] == 0,
                 "'" << path << "': v2 reserved field is nonzero");
      MW_REQUIRE(header_.num_arcs <= file_bytes / sizeof(Vertex),
                 "'" << path << "' is truncated: header claims "
                     << header_.num_arcs << " arcs, file has only "
                     << file_bytes << " bytes");
      const std::uint64_t expected = mwg_file_bytes_v2(
          header_.num_vertices, header_.num_arcs, block_bits_);
      MW_REQUIRE(file_bytes == expected,
                 "'" << path << "' is truncated or padded: a v2 file with "
                     << header_.num_arcs << " arcs and block_bits "
                     << block_bits_ << " must be " << expected
                     << " bytes, file has " << file_bytes);
    }

    const auto* bytes = static_cast<const char*>(base_);
    offsets_ = reinterpret_cast<const std::uint64_t*>(bytes +
                                                      mwg_offsets_begin());
    targets_ = reinterpret_cast<const Vertex*>(
        bytes + mwg_targets_begin(header_.num_vertices));
    if (block_bits_ > 0) {
      const std::uint64_t index_begin =
          mwg_block_index_begin(header_.num_vertices, header_.num_arcs);
      block_arc_begin_ =
          reinterpret_cast<const std::uint64_t*>(bytes + index_begin);
      block_max_degree_ = reinterpret_cast<const Vertex*>(
          bytes + index_begin +
          (mwg_num_blocks(header_.num_vertices, block_bits_) + 1) *
              sizeof(std::uint64_t));
    }

    // Structure scan: offsets only — never faults the targets region.
    const std::uint64_t n = header_.num_vertices;
    MW_REQUIRE(offsets_[0] == 0, "'" << path << "': offsets must start at 0");
    MW_REQUIRE(offsets_[n] == header_.num_arcs,
               "'" << path << "': offsets end at " << offsets_[n]
                   << ", header claims " << header_.num_arcs << " arcs");
    Vertex min_deg = n > 0 ? kInvalidVertex : 0;
    Vertex max_deg = 0;
    Vertex block_max = 0;  // running max inside the current v2 block
    for (std::uint64_t v = 0; v < n; ++v) {
      MW_REQUIRE(offsets_[v] <= offsets_[v + 1],
                 "'" << path << "': offsets not monotone at vertex " << v);
      const std::uint64_t degree = offsets_[v + 1] - offsets_[v];
      MW_REQUIRE(degree < kInvalidVertex,
                 "'" << path << "': degree of vertex " << v << " overflows");
      min_deg = std::min(min_deg, static_cast<Vertex>(degree));
      max_deg = std::max(max_deg, static_cast<Vertex>(degree));
      if (block_bits_ > 0) {
        // Fused block-index validation: at each block's first vertex the
        // index must agree with the offsets array, and at its last vertex
        // the cached max degree must match what the scan saw.
        const std::uint64_t b = v >> block_bits_;
        if ((v & ((std::uint64_t{1} << block_bits_) - 1)) == 0) {
          MW_REQUIRE(block_arc_begin_[b] == offsets_[v],
                     "'" << path << "': block index claims block " << b
                         << " starts at arc " << block_arc_begin_[b]
                         << ", offsets say " << offsets_[v]);
          block_max = 0;
        }
        block_max = std::max(block_max, static_cast<Vertex>(degree));
        if (v + 1 == n || ((v + 1) >> block_bits_) != b) {
          MW_REQUIRE(block_max_degree_[b] == block_max,
                     "'" << path << "': block index claims block " << b
                         << " max degree " << block_max_degree_[b]
                         << ", offsets say " << block_max);
        }
      }
    }
    MW_REQUIRE(min_deg == header_.min_degree && max_deg == header_.max_degree,
               "'" << path << "': header degree range [" << header_.min_degree
                   << "," << header_.max_degree
                   << "] does not match the offsets array [" << min_deg << ","
                   << max_deg << "]");
    if (block_bits_ > 0) {
      MW_REQUIRE(block_arc_begin_[num_blocks()] == header_.num_arcs,
                 "'" << path << "': block index ends at arc "
                     << block_arc_begin_[num_blocks()] << ", header claims "
                     << header_.num_arcs);
    }

    const std::uint64_t targets_byte_begin =
        mwg_targets_begin(header_.num_vertices);
    const std::uint64_t targets_byte_end =
        targets_byte_begin + header_.num_arcs * sizeof(Vertex);
    if (validate != Validate::kStructure) {
      // The scan walks the adjacency region front to back; let the
      // kernel read ahead aggressively for this one pass. Advice is
      // scoped to the targets extent — a mapping-wide flip would also
      // reshape the offsets/index pages other subsystems (the block
      // scheduler above all) rely on streaming sequentially.
      advise(targets_byte_begin, targets_byte_end, ExtentAdvice::kSequential);
      const bool deep = validate == Validate::kDeep;
      std::uint64_t loops = 0;
      for (std::uint64_t v = 0; v < n; ++v) {
        for (std::uint64_t a = offsets_[v]; a < offsets_[v + 1]; ++a) {
          const Vertex u = targets_[a];
          MW_REQUIRE(u < n, "'" << path << "': target " << u
                                << " out of range in row " << v);
          if (!deep) continue;
          MW_REQUIRE(a == offsets_[v] || targets_[a - 1] <= u,
                     "'" << path << "': row " << v << " not sorted");
          if (u == v) ++loops;
        }
      }
      MW_REQUIRE(!deep || loops == header_.num_loops,
                 "'" << path << "': header claims " << header_.num_loops
                     << " loops, adjacency has " << loops);
    }
  } catch (...) {
    unmap();
    throw;
  }

  // The walk hot path touches arcs in random order; tell the kernel not
  // to waste read-ahead on sequential speculation. Scoped to the targets
  // extent: the offsets (and v2 block index) are scanned linearly and
  // keep default readahead.
  advise(mwg_targets_begin(header_.num_vertices),
         mwg_targets_begin(header_.num_vertices) +
             header_.num_arcs * sizeof(Vertex),
         ExtentAdvice::kRandom);
}

void MappedGraph::advise(std::uint64_t byte_begin, std::uint64_t byte_end,
                         ExtentAdvice advice) const noexcept {
  if (base_ == nullptr) return;
  const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  byte_begin = (byte_begin / page) * page;
  byte_end = std::min(byte_end, mapped_bytes_);
  if (byte_begin >= byte_end) return;
  int native = POSIX_MADV_NORMAL;
  switch (advice) {
    case ExtentAdvice::kNormal: native = POSIX_MADV_NORMAL; break;
    case ExtentAdvice::kRandom: native = POSIX_MADV_RANDOM; break;
    case ExtentAdvice::kSequential: native = POSIX_MADV_SEQUENTIAL; break;
    case ExtentAdvice::kWillNeed: native = POSIX_MADV_WILLNEED; break;
    case ExtentAdvice::kDontNeed: native = POSIX_MADV_DONTNEED; break;
  }
  ::posix_madvise(static_cast<char*>(base_) + byte_begin,
                  byte_end - byte_begin, native);
}

MappedGraph::~MappedGraph() { unmap(); }

MappedGraph::MappedGraph(MappedGraph&& other) noexcept
    : path_(std::move(other.path_)),
      base_(std::exchange(other.base_, nullptr)),
      mapped_bytes_(std::exchange(other.mapped_bytes_, 0)),
      header_(other.header_),
      offsets_(std::exchange(other.offsets_, nullptr)),
      targets_(std::exchange(other.targets_, nullptr)),
      block_bits_(std::exchange(other.block_bits_, 0)),
      block_arc_begin_(std::exchange(other.block_arc_begin_, nullptr)),
      block_max_degree_(std::exchange(other.block_max_degree_, nullptr)) {}

MappedGraph& MappedGraph::operator=(MappedGraph&& other) noexcept {
  if (this != &other) {
    unmap();
    path_ = std::move(other.path_);
    base_ = std::exchange(other.base_, nullptr);
    mapped_bytes_ = std::exchange(other.mapped_bytes_, 0);
    header_ = other.header_;
    offsets_ = std::exchange(other.offsets_, nullptr);
    targets_ = std::exchange(other.targets_, nullptr);
    block_bits_ = std::exchange(other.block_bits_, 0);
    block_arc_begin_ = std::exchange(other.block_arc_begin_, nullptr);
    block_max_degree_ = std::exchange(other.block_max_degree_, nullptr);
  }
  return *this;
}

void MappedGraph::unmap() noexcept {
  if (base_ != nullptr) {
    ::munmap(base_, mapped_bytes_);
    base_ = nullptr;
    mapped_bytes_ = 0;
    offsets_ = nullptr;
    targets_ = nullptr;
    block_bits_ = 0;
    block_arc_begin_ = nullptr;
    block_max_degree_ = nullptr;
  }
}

Graph to_graph(const MappedGraph& mapped, bool validate) {
  const auto offsets = mapped.offsets();
  const auto targets = mapped.targets();
  return Graph::from_csr(
      std::vector<std::uint64_t>(offsets.begin(), offsets.end()),
      std::vector<Vertex>(targets.begin(), targets.end()), validate);
}

}  // namespace manywalks
