#include "storage/block_store.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace manywalks {

// --- BlockedGraph -----------------------------------------------------

BlockedGraph::BlockedGraph(const std::string& path)
    : path_(path), file_(open_mwg(path)) {
  // Header first, via a plain read — the metadata mapping size depends on
  // the vertex count it declares.
  if (::pread(file_.fd.get(), &header_, sizeof(MwgHeader), 0) !=
      static_cast<ssize_t>(sizeof(MwgHeader))) {
    throw MwgIoError("cannot read the header of '" + path + "': " +
                     errno_message(errno));
  }
  check_mwg_header(path, header_, file_.bytes);
  MW_REQUIRE(header_.version == kMwgVersionBlockIndex,
             "'" << path << "' is mwg version " << header_.version
                 << "; out-of-core block scheduling needs the v2 block "
                    "index — upgrade with `manywalks graph convert --in="
                 << path << " --out=...`");
  block_bits_ = mwg_block_bits(header_);
  const std::uint64_t n = header_.num_vertices;

  // Metadata mapping 1: header + offsets (never the targets).
  meta_ = MwgMapping(file_.fd.get(), 0, mwg_targets_begin(n),
                     "the metadata of '" + path + "'");
  offsets_ =
      reinterpret_cast<const std::uint64_t*>(meta_.at(mwg_offsets_begin()));

  // Metadata mapping 2: the tail block index (page-aligned down).
  const std::uint64_t index_begin = mwg_block_index_begin(n, header_.num_arcs);
  index_ = MwgMapping(file_.fd.get(), index_begin, file_.bytes,
                      "the block index of '" + path + "'");
  block_arc_begin_ =
      reinterpret_cast<const std::uint64_t*>(index_.at(index_begin));
  block_max_degree_ = reinterpret_cast<const Vertex*>(
      index_.at(index_begin + (num_blocks() + 1) * sizeof(std::uint64_t)));

  // The same structure scan MappedGraph runs, over the resident metadata
  // only — it never touches the (unmapped) targets.
  check_mwg_structure(path, header_, offsets_, block_arc_begin_,
                      block_max_degree_);
}

void BlockedGraph::read_extent(std::uint64_t byte_begin,
                               std::uint64_t byte_end, std::byte* out) const {
  MW_REQUIRE(byte_end <= file_.bytes,
             "extent [" << byte_begin << "," << byte_end
                        << ") past the end of '" << path_ << "' ("
                        << file_.bytes << " bytes)");
  MW_REQUIRE(byte_begin < byte_end, "empty extent [" << byte_begin << ","
                                                     << byte_end << ")");
  std::uint64_t at = byte_begin;
  while (at < byte_end) {
    const ssize_t got = ::pread(file_.fd.get(), out + (at - byte_begin),
                                byte_end - at, static_cast<off_t>(at));
    if (got > 0) {
      at += static_cast<std::uint64_t>(got);
      continue;
    }
    const int err = got < 0 ? errno : 0;
    if (err == EINTR) continue;
    const std::string extent = "extent [" + std::to_string(byte_begin) + "," +
                               std::to_string(byte_end) + ") of '" + path_ +
                               "'";
    if (err != 0) {
      throw MwgIoError("read of " + extent + " failed: " + errno_message(err));
    }
    throw MwgIoError(extent + " ends at byte " + std::to_string(at) +
                     ": the file shrank after it was opened");
  }
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
    return lru_.front().data.get();
  }
  const std::uint64_t bytes = byte_end - byte_begin;
  const std::uint64_t evictions_before = stats_.evictions;
  std::unique_ptr<std::byte[]> data = evict_for(bytes);
  if (data == nullptr) {
    try {
      data = std::make_unique_for_overwrite<std::byte[]>(bytes);
    } catch (const std::bad_alloc&) {
      throw MwgIoError("cannot allocate " + std::to_string(bytes) +
                       " bytes for extent [" + std::to_string(byte_begin) +
                       "," + std::to_string(byte_end) + ") of '" +
                       graph_->path() + "'");
    }
  }
  graph_->read_extent(byte_begin, byte_end, data.get());
  if (!checked_.contains(byte_begin)) {
    check_targets(byte_begin, byte_end, data.get());
    checked_.insert(byte_begin);
  }
  lru_.push_front(Entry{byte_begin, byte_end, std::move(data)});
  by_begin_.emplace(byte_begin, lru_.begin());
  ++stats_.loads;
  stats_.bytes_loaded += bytes;
  stats_.resident_bytes += bytes;
  const std::uint64_t evicted = stats_.evictions - evictions_before;
  stats_.peak_resident_bytes =
      std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
  // Observability: misses and evictions are cache-churn events (coarse by
  // construction — one per extent read, never per walk step). Counters
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
  return lru_.front().data.get();
}

std::unique_ptr<std::byte[]> ExtentCache::evict_for(std::uint64_t bytes) {
  // Evict before loading, so the cache never holds more than
  // max(budget, one extent); the extent about to load is not resident
  // yet, so it cannot evict itself.
  std::unique_ptr<std::byte[]> reuse;
  while (!lru_.empty() && stats_.resident_bytes + bytes > budget_) {
    Entry& victim = lru_.back();
    const std::uint64_t victim_bytes = victim.end - victim.begin;
    if (victim_bytes == bytes) reuse = std::move(victim.data);
    stats_.resident_bytes -= victim_bytes;
    ++stats_.evictions;
    by_begin_.erase(victim.begin);
    lru_.pop_back();
  }
  return reuse;
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
