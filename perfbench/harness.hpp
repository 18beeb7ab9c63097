// Shared pieces of the perfbench workload runner: the operation ledger, the
// bit-exact output digest, timed phases that double as trace spans, and the
// per-layer metric table.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mc/estimators.hpp"
#include "obs/trace.hpp"

namespace perfbench {

/// Pool workers every workload gets. With the caller joining parallel_for
/// that makes kPoolWorkers + 1 executors, the CLI's `--threads=2` shape.
inline constexpr unsigned kPoolWorkers = 2;
inline constexpr unsigned kExecutors = kPoolWorkers + 1;

/// Every operation the benchmark attempts, and the ones that failed. A
/// Monte-Carlo trial is one operation (a censored trial fails); an output
/// check is one operation (a miss fails). Nothing is dropped silently: each
/// failure keeps a one-line reason.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  void check(bool ok, const std::string& what);
  void trials(const manywalks::McResult& result, const std::string& what);
};

/// Bit-exact record of a repetition's outputs: two runs agree only when every
/// estimate has the same bit pattern and the same token-step count.
class Digest {
 public:
  void add(double value);
  void add(std::uint64_t value);
  void add(const manywalks::McResult& result);
  void add(const manywalks::SpeedupEstimate& estimate);

  /// Walk work of the repetition: lane steps summed over every trial.
  std::uint64_t token_steps = 0;
  /// Adds one estimate's trials to token_steps (k lanes step every round).
  void add_steps(const manywalks::McResult& result, unsigned k);

  std::string hex() const;
  bool operator==(const Digest& other) const {
    return words_ == other.words_ && token_steps == other.token_steps;
  }

 private:
  std::vector<std::uint64_t> words_;
};

double now_s();
/// Process CPU seconds, user and system.
struct CpuTimes {
  double user = 0.0;
  double sys = 0.0;
  double total() const { return user + sys; }
};
CpuTimes cpu_times();
double peak_rss_mb();

/// One timed phase: wall and CPU seconds, and (when `trace` is not null) a
/// complete span with the phase's cores-used in its args. `name` must be a
/// string literal.
class Phase {
 public:
  Phase(manywalks::obs::TraceWriter* trace, const char* name);
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;
  ~Phase();

  /// Extra span args: a pre-rendered JSON object body, e.g. "\"k\":4".
  void set_args(std::string args_json) { args_ = std::move(args_json); }
  /// Ends the phase (once) and returns its wall seconds.
  double stop();
  double cpu_s() const { return cpu_s_; }
  double sys_s() const { return sys_s_; }

 private:
  manywalks::obs::TraceWriter* trace_;
  const char* name_;
  std::string args_;
  std::uint64_t ts_us_ = 0;
  double t0_;
  CpuTimes cpu0_;
  bool done_ = false;
  double wall_s_ = 0.0;
  double cpu_s_ = 0.0;
  double sys_s_ = 0.0;
};

/// The per-layer metrics of a traced run, every name of kLayerMetrics, each
/// starting at 0 (a layer the workload leaves idle reads 0).
using Layers = std::map<std::string, double>;
extern const std::vector<std::pair<std::string, std::string>> kLayerMetrics;
Layers make_layers();

double median(std::vector<double> values);

}  // namespace perfbench
