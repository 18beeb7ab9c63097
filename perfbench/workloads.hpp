// The benchmark's workloads. Each one is a client of the manywalks library:
// it builds its inputs from the seed (setup), runs one fixed unit of work
// with its output checks (run), and can run the same unit again split into
// its layer calls for the traced run (run_layered, probe).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "harness.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

/// Seconds spent in each set-up layer by one set-up.
struct SetupTimes {
  double build_s = 0.0;  ///< graph/core: family and generator builds
  double write_s = 0.0;  ///< storage: write_mwg
  double open_s = 0.0;   ///< storage: BlockedGraph + MappedGraph open
  double total() const { return build_s + write_s + open_s; }
};

struct Context {
  std::uint64_t seed = 0;
  std::string work_dir;  ///< where a workload may write scratch files
  /// Test hook: every reference value an output check compares against is
  /// doubled, so each check must report a failed operation.
  bool corrupt_oracle = false;
  manywalks::ThreadPool* pool = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// How many set-ups a run makes; setup_s is their median.
  virtual int setup_reps() const = 0;
  /// Builds the inputs from the seed, replacing the previous build.
  virtual SetupTimes setup(manywalks::obs::TraceWriter* trace) = 0;
  /// Computes, once and untimed, the reference a check compares against.
  virtual void prepare(Ledger& /*ledger*/) {}
  /// One repetition of the workload's fixed work, with its output checks.
  virtual Digest run(Ledger& ledger) = 0;
  /// The same repetition split into its layer calls, each a trace span;
  /// per-layer figures go into `layers`. Must reproduce run()'s digest.
  virtual Digest run_layered(Ledger& ledger, Layers& layers,
                             manywalks::obs::TraceWriter* trace) = 0;
  /// Extra per-layer measurements of the traced run. `untraced_wall_s` is
  /// the wall time of one plain run(), `reference` its digest.
  virtual void probe(Ledger& ledger, Layers& layers,
                     manywalks::obs::TraceWriter* trace,
                     double untraced_wall_s, const Digest& reference) = 0;
};

/// Null when `name` is not a workload.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Context& context);

}  // namespace perfbench
