#include "storage/mwg.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>
#include <system_error>

namespace manywalks {

namespace {

constexpr std::uint32_t byte_swap32(std::uint32_t x) noexcept {
  return ((x & 0x000000ffu) << 24) | ((x & 0x0000ff00u) << 8) |
         ((x & 0x00ff0000u) >> 8) | ((x & 0xff000000u) >> 24);
}

std::uint64_t page_size() noexcept {
  return static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

template <class T>
void write_raw(std::ofstream& out, const T* data, std::size_t count) {
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(count * sizeof(T)));
}

}  // namespace

MwgWriter::MwgWriter(std::string path, Vertex num_vertices,
                     std::uint32_t block_bits)
    : path_(std::move(path)),
      out_(path_, std::ios::binary | std::ios::trunc),
      n_(num_vertices),
      block_bits_(block_bits) {
  MW_REQUIRE(num_vertices != kInvalidVertex, "mwg vertex count too large");
  MW_REQUIRE(block_bits_ <= kMwgMaxBlockBits,
             "block_bits " << block_bits_ << " exceeds the maximum "
                           << kMwgMaxBlockBits);
  if (!out_.good()) {
    throw MwgIoError("cannot open '" + path_ + "' for writing");
  }
  offsets_.reserve(static_cast<std::size_t>(n_) + 1);
  offsets_.push_back(0);
  if (block_bits_ > 0) {
    block_max_degree_.assign(mwg_num_blocks(n_, block_bits_), 0);
  }
  // Targets stream to their final position; the header and offsets are
  // written by finish(), so an abandoned file keeps a zeroed header that
  // every loader rejects.
  out_.seekp(static_cast<std::streamoff>(mwg_targets_begin(n_)));
  MW_REQUIRE(out_.good(), "seek failed on '" << path_ << "'");
}

void MwgWriter::append_row(std::span<const Vertex> sorted_neighbors) {
  MW_REQUIRE(!finished_, "append_row after finish()");
  MW_REQUIRE(rows_ < n_, "more rows than the declared " << n_ << " vertices");
  const Vertex v = rows_;
  Vertex prev = 0;
  for (std::size_t i = 0; i < sorted_neighbors.size(); ++i) {
    const Vertex u = sorted_neighbors[i];
    MW_REQUIRE(u < n_, "row " << v << ": neighbor " << u
                              << " out of range (n=" << n_ << ")");
    MW_REQUIRE(i == 0 || prev <= u,
               "row " << v << " not sorted ascending at position " << i);
    prev = u;
    if (u == v) ++loops_;
  }
  write_raw(out_, sorted_neighbors.data(), sorted_neighbors.size());
  const auto degree = static_cast<Vertex>(sorted_neighbors.size());
  min_degree_ = std::min(min_degree_, degree);
  max_degree_ = std::max(max_degree_, degree);
  if (block_bits_ > 0) {
    Vertex& block_max = block_max_degree_[v >> block_bits_];
    block_max = std::max(block_max, degree);
  }
  offsets_.push_back(offsets_.back() + degree);
  ++rows_;
}

void MwgWriter::finish() {
  MW_REQUIRE(!finished_, "finish() called twice");
  MW_REQUIRE(rows_ == n_,
             "finish() after " << rows_ << " of " << n_ << " rows");
  MwgHeader header{};
  std::memcpy(header.magic, kMwgMagic, sizeof(kMwgMagic));
  header.endian = kMwgEndianTag;
  header.version = block_bits_ > 0 ? kMwgVersionBlockIndex : kMwgVersion;
  header.num_vertices = n_;
  header.num_arcs = offsets_.back();
  header.num_loops = loops_;
  header.min_degree = n_ > 0 ? min_degree_ : 0;
  header.max_degree = max_degree_;
  header.reserved[0] = block_bits_;

  if (block_bits_ > 0) {
    // The put position sits at the end of the targets array; pad to the
    // 8-aligned index begin, then emit block_arc_begin (derived from the
    // offsets array) and the per-block max degrees.
    const std::uint64_t targets_end = mwg_file_bytes(n_, offsets_.back());
    const std::uint64_t index_begin = mwg_block_index_begin(n_, offsets_.back());
    const char pad[8] = {};
    out_.write(pad, static_cast<std::streamsize>(index_begin - targets_end));
    const std::uint64_t blocks = mwg_num_blocks(n_, block_bits_);
    for (std::uint64_t b = 0; b < blocks; ++b) {
      const std::uint64_t first_vertex = b << block_bits_;
      write_raw(out_, &offsets_[first_vertex], 1);
    }
    write_raw(out_, &offsets_.back(), 1);
    write_raw(out_, block_max_degree_.data(), block_max_degree_.size());
  }

  out_.seekp(0);
  write_raw(out_, &header, 1);
  write_raw(out_, offsets_.data(), offsets_.size());
  out_.flush();
  MW_REQUIRE(out_.good(), "write failed on '" << path_ << "'");
  out_.close();
  finished_ = true;
}

void write_mwg(const std::string& path, const Graph& g,
               std::uint32_t block_bits) {
  MwgWriter writer(path, g.num_vertices(), block_bits);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    writer.append_row(g.neighbors(v));
  }
  writer.finish();
}

// --- read side -------------------------------------------------------

std::string errno_message(int err) {
  return std::error_code(err, std::generic_category()).message();
}

UniqueFd::~UniqueFd() {
  if (fd_ >= 0) ::close(fd_);
}

MwgMapping::MwgMapping(int fd, std::uint64_t byte_begin,
                       std::uint64_t byte_end, const std::string& what) {
  const std::uint64_t page = page_size();
  file_begin_ = (byte_begin / page) * page;
  const std::uint64_t bytes = byte_end - file_begin_;
  void* base = ::mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd,
                      static_cast<off_t>(file_begin_));
  if (base == MAP_FAILED) {
    const int err = errno;
    throw MwgIoError("mmap of " + what + " failed: " + errno_message(err));
  }
  base_ = std::unique_ptr<void, Unmap>(base, Unmap{bytes});
}

void MwgMapping::Unmap::operator()(void* base) const noexcept {
  ::munmap(base, bytes);
}

void MwgMapping::advise(std::uint64_t byte_begin, std::uint64_t byte_end,
                        int posix_advice) const noexcept {
  if (empty()) return;
  const std::uint64_t page = page_size();
  byte_begin = std::max((byte_begin / page) * page, file_begin_);
  byte_end = std::min(byte_end, file_begin_ + mapped_bytes());
  if (byte_begin >= byte_end) return;
  ::posix_madvise(static_cast<char*>(base_.get()) + (byte_begin - file_begin_),
                  byte_end - byte_begin, posix_advice);
}

MwgFile open_mwg(const std::string& path) {
  MwgFile file{UniqueFd(::open(path.c_str(), O_RDONLY))};
  if (file.fd.get() < 0) {
    throw MwgIoError("cannot open '" + path + "': " + errno_message(errno));
  }
  struct stat st{};
  if (::fstat(file.fd.get(), &st) != 0) {
    throw MwgIoError("cannot stat '" + path + "': " + errno_message(errno));
  }
  file.bytes = static_cast<std::uint64_t>(st.st_size);
  MW_REQUIRE(file.bytes >= kMwgHeaderBytes,
             "'" << path << "' is not an mwg file: " << file.bytes
                 << " bytes is smaller than the " << kMwgHeaderBytes
                 << "-byte header");
  return file;
}

void check_mwg_header(const std::string& path, const MwgHeader& header,
                      std::uint64_t file_bytes) {
  MW_REQUIRE(std::memcmp(header.magic, kMwgMagic, sizeof(kMwgMagic)) == 0,
             "'" << path << "' is not an mwg file (bad magic)");
  MW_REQUIRE(header.endian != byte_swap32(kMwgEndianTag),
             "'" << path << "' was written on a machine with the opposite "
                 "byte order; regenerate it natively");
  MW_REQUIRE(header.endian == kMwgEndianTag,
             "'" << path << "' has an unrecognized endianness tag");
  MW_REQUIRE(header.version == kMwgVersion ||
                 header.version == kMwgVersionBlockIndex,
             "'" << path << "' is mwg version " << header.version
                 << "; this build reads versions " << kMwgVersion << " and "
                 << kMwgVersionBlockIndex);
  MW_REQUIRE(header.num_vertices < kInvalidVertex,
             "'" << path << "' vertex count " << header.num_vertices
                 << " exceeds the 32-bit vertex limit");
  // Each self loop is one arc. (Whether the count is exact needs the
  // targets, so it is a Validate::kDeep rule.)
  MW_REQUIRE(header.num_loops <= header.num_arcs,
             "'" << path << "': header claims " << header.num_loops
                 << " loops but only " << header.num_arcs << " arcs");
  // Size consistency, derived FROM the file size rather than by
  // multiplying header fields (num_arcs * 4 from a hostile header could
  // wrap modulo 2^64 and "match" a file with no adjacency at all).
  // n < 2^32 keeps mwg_targets_begin itself overflow-free.
  MW_REQUIRE(file_bytes >= mwg_targets_begin(header.num_vertices),
             "'" << path << "' is truncated: " << file_bytes
                 << " bytes cannot hold the header and "
                 << header.num_vertices + 1 << " row offsets");
  if (header.version == kMwgVersion) {
    const std::uint64_t adjacency_bytes =
        file_bytes - mwg_targets_begin(header.num_vertices);
    MW_REQUIRE(adjacency_bytes % sizeof(Vertex) == 0 &&
                   adjacency_bytes / sizeof(Vertex) == header.num_arcs,
               "'" << path << "' is truncated or padded: header claims "
                   << header.num_arcs << " arcs, file has "
                   << adjacency_bytes << " adjacency bytes");
    return;
  }
  // v2: the file carries a trailing block index. Bound num_arcs by the
  // file size first so mwg_file_bytes_v2 below cannot overflow on a
  // hostile header, then require the exact v2 size.
  MW_REQUIRE(header.reserved[0] >= 1 && header.reserved[0] <= kMwgMaxBlockBits,
             "'" << path << "': v2 block_bits " << header.reserved[0]
                 << " outside [1," << kMwgMaxBlockBits << "]");
  MW_REQUIRE(header.reserved[1] == 0,
             "'" << path << "': v2 reserved field is nonzero");
  MW_REQUIRE(header.num_arcs <= file_bytes / sizeof(Vertex),
             "'" << path << "' is truncated: header claims "
                 << header.num_arcs << " arcs, file has only " << file_bytes
                 << " bytes");
  const std::uint32_t block_bits = mwg_block_bits(header);
  const std::uint64_t expected =
      mwg_file_bytes_v2(header.num_vertices, header.num_arcs, block_bits);
  MW_REQUIRE(file_bytes == expected,
             "'" << path << "' is truncated or padded: a v2 file with "
                 << header.num_arcs << " arcs and block_bits " << block_bits
                 << " must be " << expected << " bytes, file has "
                 << file_bytes);
}

void check_mwg_structure(const std::string& path, const MwgHeader& header,
                         const std::uint64_t* offsets,
                         const std::uint64_t* block_arc_begin,
                         const Vertex* block_max_degree) {
  const std::uint64_t n = header.num_vertices;
  const std::uint32_t block_bits = mwg_block_bits(header);
  MW_REQUIRE(offsets[0] == 0, "'" << path << "': offsets must start at 0");
  MW_REQUIRE(offsets[n] == header.num_arcs,
             "'" << path << "': offsets end at " << offsets[n]
                 << ", header claims " << header.num_arcs << " arcs");
  Vertex min_deg = n > 0 ? kInvalidVertex : 0;
  Vertex max_deg = 0;
  Vertex block_max = 0;  // running max inside the current v2 block
  for (std::uint64_t v = 0; v < n; ++v) {
    MW_REQUIRE(offsets[v] <= offsets[v + 1],
               "'" << path << "': offsets not monotone at vertex " << v);
    const std::uint64_t degree = offsets[v + 1] - offsets[v];
    MW_REQUIRE(degree < kInvalidVertex,
               "'" << path << "': degree of vertex " << v << " overflows");
    min_deg = std::min(min_deg, static_cast<Vertex>(degree));
    max_deg = std::max(max_deg, static_cast<Vertex>(degree));
    if (block_bits > 0) {
      // Fused block-index validation: at each block's first vertex the
      // index must agree with the offsets array, and at its last vertex
      // the cached max degree must match what the scan saw.
      const std::uint64_t b = v >> block_bits;
      if ((v & ((std::uint64_t{1} << block_bits) - 1)) == 0) {
        MW_REQUIRE(block_arc_begin[b] == offsets[v],
                   "'" << path << "': block index claims block " << b
                       << " starts at arc " << block_arc_begin[b]
                       << ", offsets say " << offsets[v]);
        block_max = 0;
      }
      block_max = std::max(block_max, static_cast<Vertex>(degree));
      if (v + 1 == n || ((v + 1) >> block_bits) != b) {
        MW_REQUIRE(block_max_degree[b] == block_max,
                   "'" << path << "': block index claims block " << b
                       << " max degree " << block_max_degree[b]
                       << ", offsets say " << block_max);
      }
    }
  }
  MW_REQUIRE(min_deg == header.min_degree && max_deg == header.max_degree,
             "'" << path << "': header degree range [" << header.min_degree
                 << "," << header.max_degree
                 << "] does not match the offsets array [" << min_deg << ","
                 << max_deg << "]");
  if (block_bits > 0) {
    const std::uint64_t blocks = mwg_num_blocks(n, block_bits);
    MW_REQUIRE(block_arc_begin[blocks] == header.num_arcs,
               "'" << path << "': block index ends at arc "
                   << block_arc_begin[blocks] << ", header claims "
                   << header.num_arcs);
  }
}

}  // namespace manywalks
