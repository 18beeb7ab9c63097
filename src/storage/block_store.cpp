#include "storage/block_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string>
#include <system_error>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace manywalks {

namespace {

std::string errno_message(int err) {
  return std::error_code(err, std::generic_category()).message();
}

std::uint64_t page_size() noexcept {
  return static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

constexpr std::uint32_t byte_swap32(std::uint32_t x) noexcept {
  return ((x & 0x000000ffu) << 24) | ((x & 0x0000ff00u) << 8) |
         ((x & 0x00ff0000u) >> 8) | ((x & 0xff000000u) >> 24);
}

}  // namespace

// --- MappedExtent -----------------------------------------------------

MappedExtent::MappedExtent(int fd, std::uint64_t byte_begin,
                           std::uint64_t byte_end, const std::string& path) {
  MW_REQUIRE(byte_begin < byte_end, "empty extent [" << byte_begin << ","
                                                     << byte_end << ")");
  const std::uint64_t page = page_size();
  const std::uint64_t map_begin = (byte_begin / page) * page;
  const std::uint64_t len = byte_end - map_begin;
  void* base = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd,
                      static_cast<off_t>(map_begin));
  if (base == MAP_FAILED) {
    throw MwgIoError("mmap of extent [" + std::to_string(byte_begin) + "," +
                     std::to_string(byte_end) + ") of '" + path +
                     "' failed: " + errno_message(errno));
  }
  base_ = base;
  mapped_bytes_ = len;
  lead_ = byte_begin - map_begin;
  // One extent = one sequential read: prefetch the whole range now so the
  // block's walkers hit warm pages instead of faulting one by one.
  ::posix_madvise(base_, mapped_bytes_, POSIX_MADV_WILLNEED);
}

MappedExtent::~MappedExtent() {
  if (base_ != nullptr) ::munmap(base_, mapped_bytes_);
}

MappedExtent::MappedExtent(MappedExtent&& other) noexcept
    : base_(std::exchange(other.base_, nullptr)),
      mapped_bytes_(std::exchange(other.mapped_bytes_, 0)),
      lead_(std::exchange(other.lead_, 0)) {}

MappedExtent& MappedExtent::operator=(MappedExtent&& other) noexcept {
  if (this != &other) {
    if (base_ != nullptr) ::munmap(base_, mapped_bytes_);
    base_ = std::exchange(other.base_, nullptr);
    mapped_bytes_ = std::exchange(other.mapped_bytes_, 0);
    lead_ = std::exchange(other.lead_, 0);
  }
  return *this;
}

// --- BlockedGraph -----------------------------------------------------

BlockedGraph::BlockedGraph(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) {
    throw MwgIoError("cannot open '" + path + "': " + errno_message(errno));
  }
  try {
    struct stat st{};
    if (::fstat(fd_, &st) != 0) {
      throw MwgIoError("cannot stat '" + path + "': " + errno_message(errno));
    }
    file_bytes_ = static_cast<std::uint64_t>(st.st_size);
    MW_REQUIRE(file_bytes_ >= kMwgHeaderBytes,
               "'" << path << "' is not an mwg file: " << file_bytes_
                   << " bytes is smaller than the " << kMwgHeaderBytes
                   << "-byte header");

    // Header first, via a plain read — the metadata mapping size depends
    // on the vertex count it declares.
    if (::pread(fd_, &header_, sizeof(MwgHeader), 0) !=
        static_cast<ssize_t>(sizeof(MwgHeader))) {
      throw MwgIoError("cannot read the header of '" + path + "': " +
                       errno_message(errno));
    }
    MW_REQUIRE(std::memcmp(header_.magic, kMwgMagic, sizeof(kMwgMagic)) == 0,
               "'" << path << "' is not an mwg file (bad magic)");
    MW_REQUIRE(header_.endian != byte_swap32(kMwgEndianTag),
               "'" << path << "' was written on a machine with the opposite "
                   "byte order; regenerate it natively");
    MW_REQUIRE(header_.endian == kMwgEndianTag,
               "'" << path << "' has an unrecognized endianness tag");
    MW_REQUIRE(header_.version == kMwgVersionBlockIndex,
               "'" << path << "' is mwg version " << header_.version
                   << "; out-of-core block scheduling needs the v2 block "
                      "index — upgrade with `manywalks graph convert --in="
                   << path << " --out=...`");
    MW_REQUIRE(header_.num_vertices < kInvalidVertex,
               "'" << path << "' vertex count " << header_.num_vertices
                   << " exceeds the 32-bit vertex limit");
    block_bits_ = static_cast<std::uint32_t>(header_.reserved[0]);
    MW_REQUIRE(header_.reserved[0] >= 1 &&
                   header_.reserved[0] <= kMwgMaxBlockBits,
               "'" << path << "': v2 block_bits " << header_.reserved[0]
                   << " outside [1," << kMwgMaxBlockBits << "]");
    MW_REQUIRE(header_.reserved[1] == 0,
               "'" << path << "': v2 reserved field is nonzero");
    MW_REQUIRE(header_.num_arcs <= file_bytes_ / sizeof(Vertex),
               "'" << path << "' is truncated: header claims "
                   << header_.num_arcs << " arcs, file has only "
                   << file_bytes_ << " bytes");
    const std::uint64_t expected = mwg_file_bytes_v2(
        header_.num_vertices, header_.num_arcs, block_bits_);
    MW_REQUIRE(file_bytes_ == expected,
               "'" << path << "' is truncated or padded: a v2 file with "
                   << header_.num_arcs << " arcs and block_bits "
                   << block_bits_ << " must be " << expected
                   << " bytes, file has " << file_bytes_);

    // Metadata mapping 1: header + offsets (never the targets).
    meta_bytes_ = mwg_targets_begin(header_.num_vertices);
    void* meta = ::mmap(nullptr, meta_bytes_, PROT_READ, MAP_PRIVATE, fd_, 0);
    if (meta == MAP_FAILED) {
      throw MwgIoError("mmap of the metadata of '" + path +
                       "' failed: " + errno_message(errno));
    }
    meta_base_ = meta;
    offsets_ = reinterpret_cast<const std::uint64_t*>(
        static_cast<const char*>(meta_base_) + mwg_offsets_begin());

    // Metadata mapping 2: the tail block index (page-aligned down).
    const std::uint64_t index_begin =
        mwg_block_index_begin(header_.num_vertices, header_.num_arcs);
    const std::uint64_t page = page_size();
    const std::uint64_t index_map_begin = (index_begin / page) * page;
    index_bytes_ = file_bytes_ - index_map_begin;
    void* index = ::mmap(nullptr, index_bytes_, PROT_READ, MAP_PRIVATE, fd_,
                         static_cast<off_t>(index_map_begin));
    if (index == MAP_FAILED) {
      throw MwgIoError("mmap of the block index of '" + path +
                       "' failed: " + errno_message(errno));
    }
    index_base_ = index;
    const char* index_bytes_base =
        static_cast<const char*>(index_base_) + (index_begin - index_map_begin);
    block_arc_begin_ = reinterpret_cast<const std::uint64_t*>(index_bytes_base);
    block_max_degree_ = reinterpret_cast<const Vertex*>(
        index_bytes_base + (num_blocks() + 1) * sizeof(std::uint64_t));

    // Structure scan over the resident metadata — the same fused
    // offsets + block-index validation MappedGraph runs, minus anything
    // that would touch the (unmapped) targets.
    const std::uint64_t n = header_.num_vertices;
    MW_REQUIRE(offsets_[0] == 0, "'" << path << "': offsets must start at 0");
    MW_REQUIRE(offsets_[n] == header_.num_arcs,
               "'" << path << "': offsets end at " << offsets_[n]
                   << ", header claims " << header_.num_arcs << " arcs");
    MW_REQUIRE(block_arc_begin_[num_blocks()] == header_.num_arcs,
               "'" << path << "': block index ends at arc "
                   << block_arc_begin_[num_blocks()] << ", header claims "
                   << header_.num_arcs);
    Vertex min_deg = n > 0 ? kInvalidVertex : 0;
    Vertex max_deg = 0;
    Vertex block_max = 0;
    for (std::uint64_t v = 0; v < n; ++v) {
      MW_REQUIRE(offsets_[v] <= offsets_[v + 1],
                 "'" << path << "': offsets not monotone at vertex " << v);
      const std::uint64_t degree = offsets_[v + 1] - offsets_[v];
      MW_REQUIRE(degree < kInvalidVertex,
                 "'" << path << "': degree of vertex " << v << " overflows");
      min_deg = std::min(min_deg, static_cast<Vertex>(degree));
      max_deg = std::max(max_deg, static_cast<Vertex>(degree));
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
    MW_REQUIRE(min_deg == header_.min_degree && max_deg == header_.max_degree,
               "'" << path << "': header degree range [" << header_.min_degree
                   << "," << header_.max_degree
                   << "] does not match the offsets array [" << min_deg << ","
                   << max_deg << "]");
  } catch (...) {
    close_all();
    throw;
  }
}

BlockedGraph::~BlockedGraph() { close_all(); }

BlockedGraph::BlockedGraph(BlockedGraph&& other) noexcept
    : path_(std::move(other.path_)),
      fd_(std::exchange(other.fd_, -1)),
      file_bytes_(std::exchange(other.file_bytes_, 0)),
      header_(other.header_),
      block_bits_(std::exchange(other.block_bits_, 0)),
      meta_base_(std::exchange(other.meta_base_, nullptr)),
      meta_bytes_(std::exchange(other.meta_bytes_, 0)),
      index_base_(std::exchange(other.index_base_, nullptr)),
      index_bytes_(std::exchange(other.index_bytes_, 0)),
      offsets_(std::exchange(other.offsets_, nullptr)),
      block_arc_begin_(std::exchange(other.block_arc_begin_, nullptr)),
      block_max_degree_(std::exchange(other.block_max_degree_, nullptr)) {}

BlockedGraph& BlockedGraph::operator=(BlockedGraph&& other) noexcept {
  if (this != &other) {
    close_all();
    path_ = std::move(other.path_);
    fd_ = std::exchange(other.fd_, -1);
    file_bytes_ = std::exchange(other.file_bytes_, 0);
    header_ = other.header_;
    block_bits_ = std::exchange(other.block_bits_, 0);
    meta_base_ = std::exchange(other.meta_base_, nullptr);
    meta_bytes_ = std::exchange(other.meta_bytes_, 0);
    index_base_ = std::exchange(other.index_base_, nullptr);
    index_bytes_ = std::exchange(other.index_bytes_, 0);
    offsets_ = std::exchange(other.offsets_, nullptr);
    block_arc_begin_ = std::exchange(other.block_arc_begin_, nullptr);
    block_max_degree_ = std::exchange(other.block_max_degree_, nullptr);
  }
  return *this;
}

void BlockedGraph::close_all() noexcept {
  if (meta_base_ != nullptr) {
    ::munmap(meta_base_, meta_bytes_);
    meta_base_ = nullptr;
  }
  if (index_base_ != nullptr) {
    ::munmap(index_base_, index_bytes_);
    index_base_ = nullptr;
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  offsets_ = nullptr;
  block_arc_begin_ = nullptr;
  block_max_degree_ = nullptr;
}

MappedExtent BlockedGraph::map_extent(std::uint64_t byte_begin,
                                      std::uint64_t byte_end) const {
  MW_REQUIRE(byte_end <= file_bytes_,
             "extent [" << byte_begin << "," << byte_end
                        << ") past the end of '" << path_ << "' ("
                        << file_bytes_ << " bytes)");
  return MappedExtent(fd_, byte_begin, byte_end, path_);
}

// --- ExtentCache ------------------------------------------------------

ExtentCache::ExtentCache(const BlockedGraph& graph, std::uint64_t budget_bytes)
    : graph_(&graph), budget_(budget_bytes) {
  MW_REQUIRE(budget_ > 0, "extent-cache budget must be positive");
}

const std::byte* ExtentCache::acquire(std::uint64_t byte_begin,
                                      std::uint64_t byte_end) {
  const auto it = by_begin_.find(byte_begin);
  if (it != by_begin_.end()) {
    MW_REQUIRE(it->second->end == byte_end,
               "extent at " << byte_begin << " re-acquired with end "
                            << byte_end << " != cached " << it->second->end);
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.hits;
    if (obs::RunObserver* const o = obs::observer();
        o != nullptr && o->metrics != nullptr) {
      obs::thread_counters().add(obs::Metric::kCacheHits, 1);
    }
    return lru_.front().extent.data();
  }
  MappedExtent extent = graph_->map_extent(byte_begin, byte_end);
  if (!checked_.contains(byte_begin)) {
    check_targets(byte_begin, byte_end, extent.data());
    checked_.insert(byte_begin);
  }
  lru_.push_front(Entry{byte_begin, byte_end, std::move(extent)});
  by_begin_.emplace(byte_begin, lru_.begin());
  const std::uint64_t bytes = byte_end - byte_begin;
  ++stats_.loads;
  stats_.bytes_loaded += bytes;
  stats_.resident_bytes += bytes;
  // Evict LRU extents past the budget, but never the one just acquired:
  // a single over-budget extent still loads (and pins the cache floor).
  std::uint64_t evicted = 0;
  while (stats_.resident_bytes > budget_ && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    stats_.resident_bytes -= victim.end - victim.begin;
    ++stats_.evictions;
    ++evicted;
    by_begin_.erase(victim.begin);
    lru_.pop_back();
  }
  stats_.peak_resident_bytes =
      std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
  // Observability: misses and evictions are cache-churn events (coarse by
  // construction — one per extent mapped, never per walk step). Counters
  // go to the calling thread's scratch; trace events go straight to the
  // (mutex-protected) writer.
  if (obs::RunObserver* const o = obs::observer(); o != nullptr) {
    if (o->metrics != nullptr) {
      obs::WorkerCounters& scratch = obs::thread_counters();
      scratch.add(obs::Metric::kCacheLoads, 1);
      scratch.add(obs::Metric::kCacheBytesLoaded, bytes);
      scratch.add(obs::Metric::kCacheEvictions, evicted);
    }
    if (o->trace != nullptr) {
      std::string args = "\"begin\":" + std::to_string(byte_begin) +
                         ",\"bytes\":" + std::to_string(bytes);
      if (evicted > 0) args += ",\"evicted\":" + std::to_string(evicted);
      o->trace->instant("extent-load", "cache", 0, std::move(args));
    }
  }
  return lru_.front().extent.data();
}

void ExtentCache::check_targets(std::uint64_t byte_begin,
                                std::uint64_t byte_end,
                                const std::byte* data) const {
  // Only the part of the extent inside the targets array holds vertices.
  const std::uint64_t targets_begin = graph_->targets_byte_begin();
  const std::uint64_t targets_end = graph_->arc_byte(graph_->num_arcs());
  if (byte_end <= targets_begin || byte_begin >= targets_end) return;
  const std::uint64_t first =
      (std::max(byte_begin, targets_begin) - targets_begin + sizeof(Vertex) -
       1) / sizeof(Vertex);
  const std::uint64_t last =
      (std::min(byte_end, targets_end) - targets_begin) / sizeof(Vertex);
  const Vertex n = graph_->num_vertices();
  for (std::uint64_t a = first; a < last; ++a) {
    Vertex u = 0;
    std::memcpy(&u, data + (graph_->arc_byte(a) - byte_begin), sizeof(u));
    MW_REQUIRE(u < n, "'" << graph_->path() << "': target " << u
                          << " out of range at arc " << a);
  }
}

}  // namespace manywalks
