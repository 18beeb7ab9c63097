// The experiment registry behind the `manywalks` CLI.
//
// Every paper experiment (the figures, Table 1, the ablations) registers a
// name, a one-line summary, the paper claim it reproduces, its extra
// parameters, and a runner returning a structured ExperimentResult. The
// CLI (`manywalks list/run`) is a thin layer over this registry; new
// scenarios register here instead of adding a binary.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiments.hpp"
#include "util/thread_pool.hpp"

namespace manywalks::cli {

/// The shared parameter block every experiment understands. The convention
/// (inherited from the legacy drivers) is that 0 means "use the
/// experiment's preset": quick-mode values by default, paper-scale values
/// under --full.
struct ExperimentParams {
  bool full = false;
  std::uint64_t n = 0;       ///< target graph size (0 = preset)
  std::uint64_t trials = 0;  ///< Monte-Carlo trials (0 = preset)
  /// Master seed, used verbatim (0 included). The CLI driver initializes it
  /// from ExperimentInfo::default_seed before parsing --seed.
  std::uint64_t seed = 0;
  /// Worker threads. The driver resolves 0 to default_thread_count() BEFORE
  /// invoking the runner (the one place "--threads 0 = hardware" is
  /// decided), so runners and sinks always see the real count.
  unsigned threads = 0;
  /// Lane-shard cap per cover trial (determinism contract v3): 0 = let the
  /// thread-budget planner decide, >= 1 pins CoverOptions::lane_shards,
  /// which forces lanes mode and caps the worker team. Only experiments
  /// declaring ExtraParam::kLaneShards expose the flag.
  unsigned lane_shards = 0;
  // Extra knobs only some experiments declare (see ExperimentInfo::extras):
  std::uint64_t k = 0;    ///< number of walks (fig_start_placement)
  std::uint64_t kmax = 0; ///< largest k in a sweep (fig_cycle_speedup)
  double ck = 0.0;        ///< k = ck·ln n coefficient (fig_barbell_speedup)
  std::uint64_t target = 0;  ///< distinct-vertex coverage target (giant-*)
  std::uint64_t start = 0;   ///< start vertex on stored graphs (mwg-*)
  std::string graph;         ///< .mwg file to run on (mwg-*)
  /// Out-of-core: run the block-scheduled engine instead of mapping the
  /// whole CSR (needs an mwg v2 --graph), with an explicit resident-
  /// extent budget (parse_byte_size syntax; empty = the runner default).
  bool block_walk = false;
  std::string mem_budget;
};

/// Non-shared parameters an experiment additionally accepts; the driver
/// only exposes the matching --k/--kmax/--ck/--target/--start/--graph
/// flags when declared.
enum class ExtraParam {
  kK,
  kKmax,
  kCk,
  kTarget,
  kStart,
  kGraph,
  kLaneShards,
  kBlockWalk,
  kMemBudget,
};

struct ExperimentInfo {
  std::string name;     ///< CLI name, e.g. "fig_cycle_speedup"
  std::string summary;  ///< one line for `manywalks list`
  std::string claim;    ///< paper claim reproduced, e.g. "Theorem 6 (§5)"
  /// The seed the driver stamps into ExperimentParams::seed when --seed is
  /// not given (the legacy driver's default for the same experiment).
  std::uint64_t default_seed = 1;
  std::vector<ExtraParam> extras;
};

using ExperimentRunner =
    std::function<ExperimentResult(const ExperimentParams&, ThreadPool&)>;

struct Experiment {
  ExperimentInfo info;
  ExperimentRunner runner;

  /// Invokes the runner and stamps the registry's name/claim and the
  /// censored-cell tally onto the result, so the registration is the
  /// single source of truth and no runner can forget to surface censoring.
  ExperimentResult run(const ExperimentParams& params, ThreadPool& pool) const {
    ExperimentResult result = runner(params, pool);
    result.name = info.name;
    result.claim = info.claim;
    result.censored_cells = count_censored_cells(result);
    return result;
  }
};

class ExperimentRegistry {
 public:
  /// Registers an experiment; throws std::invalid_argument on a duplicate
  /// name or missing runner.
  void add(ExperimentInfo info, ExperimentRunner runner);

  /// Looks an experiment up by exact name; nullptr when absent.
  const Experiment* find(std::string_view name) const;

  /// All experiments in registration order (the order of `manywalks list`).
  std::vector<const Experiment*> list() const;

  std::size_t size() const noexcept { return experiments_.size(); }

 private:
  std::vector<std::unique_ptr<Experiment>> experiments_;
};

/// Registers every built-in experiment into `registry` (used by the CLI at
/// startup and by tests against a private registry).
void register_all_experiments(ExperimentRegistry& registry);

// One registration function per driver group (experiments_*.cpp).
void register_speedup_experiments(ExperimentRegistry& registry);
void register_bounds_experiments(ExperimentRegistry& registry);
void register_start_experiments(ExperimentRegistry& registry);
void register_table1_experiment(ExperimentRegistry& registry);
void register_giant_experiments(ExperimentRegistry& registry);
void register_mwg_experiments(ExperimentRegistry& registry);

/// The process-wide registry with all built-ins registered (built lazily,
/// thread-safe via static-local initialization).
const ExperimentRegistry& default_registry();

}  // namespace manywalks::cli
