#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>

namespace perfbench {

void Ledger::check(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    failures.push_back(what);
  }
}

void Ledger::trials(const manywalks::McResult& result, const std::string& what) {
  attempted += result.stats.count();
  failed += result.censored;
  if (result.censored > 0) {
    failures.push_back(what + ": " + std::to_string(result.censored) +
                       " censored trial(s)");
  }
}

void Digest::add(double value) {
  words_.push_back(std::bit_cast<std::uint64_t>(value));
}

void Digest::add(std::uint64_t value) { words_.push_back(value); }

void Digest::add(const manywalks::McResult& result) {
  add(result.ci.mean);
  add(result.ci.half_width);
  add(result.stats.count());
  add(result.stats.variance());
  add(result.stats.min());
  add(result.stats.max());
  add(result.censored);
}

void Digest::add(const manywalks::SpeedupEstimate& estimate) {
  add(std::uint64_t{estimate.k});
  add(estimate.single);
  add(estimate.multi);
  add(estimate.speedup);
  add(estimate.half_width);
  add(estimate.censored);
}

void Digest::add_steps(const manywalks::McResult& result, unsigned k) {
  // Trial values are whole round counts and the running mean is exact to
  // far below one round at these trial counts, so rounding recovers the
  // exact sum.
  const auto rounds =
      static_cast<std::uint64_t>(std::llround(result.stats.sum()));
  token_steps += rounds * k;
}

std::string Digest::hex() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a, 64-bit
  const auto mix = [&h](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (const std::uint64_t word : words_) mix(word);
  mix(token_steps);
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(h));
  return buffer;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

CpuTimes cpu_times() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {seconds(usage.ru_utime), seconds(usage.ru_stime)};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

Phase::Phase(manywalks::obs::TraceWriter* trace, const char* name)
    : trace_(trace), name_(name), t0_(now_s()), cpu0_(cpu_times()) {
  if (trace_ != nullptr) ts_us_ = trace_->now_us();
}

Phase::~Phase() { stop(); }

double Phase::stop() {
  if (done_) return wall_s_;
  done_ = true;
  wall_s_ = now_s() - t0_;
  const CpuTimes cpu = cpu_times();
  cpu_s_ = cpu.total() - cpu0_.total();
  sys_s_ = cpu.sys - cpu0_.sys;
  if (trace_ != nullptr) {
    const std::uint64_t end_us = trace_->now_us();
    const double cores = wall_s_ > 0.0 ? cpu_s_ / wall_s_ : 0.0;
    char usage[96];
    std::snprintf(usage, sizeof(usage), "\"cpu_s\":%.6f,\"cores_used\":%.3f",
                  cpu_s_, cores);
    trace_->complete(name_, "perfbench", 0, ts_us_,
                     end_us > ts_us_ ? end_us - ts_us_ : 0,
                     args_.empty() ? usage : args_ + "," + usage);
  }
  return wall_s_;
}

// Name and unit of every per-layer metric; BENCHMARK.json's per_layer list
// names exactly these (perfbench/test_perfbench.py checks it).
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"graph.build_s", "s"},
    {"storage.write_s", "s"},
    {"storage.open_s", "s"},
    {"storage.extent_loads", "count"},
    {"storage.extent_hits", "count"},
    {"storage.evictions", "count"},
    {"storage.bytes_mapped", "bytes"},
    {"storage.sys_s", "s"},
    {"storage.churn_s", "s"},
    {"walk.token_steps", "count"},
    {"walk.rounds", "count"},
    {"walk.lane_steps_per_s", "1/s"},
    {"walk.block_visits", "count"},
    {"walk.bucket_migrations", "count"},
    {"walk.replayed_rounds", "count"},
    {"walk.horizons", "count"},
    {"walk.block_overhead", "ratio"},
    {"walk.merges", "count"},
    {"walk.merge_stalls", "count"},
    {"walk.shard_tax", "ratio"},
    {"mc.trials", "count"},
    {"mc.censored", "count"},
    {"mc.lanes_mode", "flag"},
    {"mc.efficiency", "ratio"},
    {"theory.hmax_s", "s"},
    {"linalg.mixing_s", "s"},
    {"linalg.mixing_steps", "count"},
    {"pool.cores_used", "cores"},
    {"pool.cpu_s", "s"},
    {"obs.trace_overhead", "ratio"},
};

Layers make_layers() {
  Layers layers;
  for (const auto& [name, unit] : kLayerMetrics) layers[name] = 0.0;
  return layers;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace perfbench
