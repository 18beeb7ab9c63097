// Shared preset tables for the registered experiments.
//
// Each legacy driver hard-coded its quick/full sizes and trial counts
// inline; they now live in one table so `manywalks list`, the docs, and
// the runners agree on what "quick" and "--full" mean.
#pragma once

#include <cstdint>
#include <string_view>

#include "core/experiments.hpp"
#include "cli/registry.hpp"

namespace manywalks::cli {

struct ExperimentPreset {
  std::string_view name;
  std::uint64_t quick_n = 0;  ///< 0 = the experiment sweeps a size list
  std::uint64_t full_n = 0;
  std::uint64_t quick_trials = 0;
  std::uint64_t full_trials = 0;
  std::uint64_t quick_kmax = 0;  ///< only k-sweep experiments
  std::uint64_t full_kmax = 0;
  std::uint64_t default_k = 0;   ///< only fixed-k experiments
  double default_ck = 0.0;       ///< only k = ck·ln n experiments
  std::uint64_t quick_target = 0;  ///< only partial-cover (giant) experiments
  std::uint64_t full_target = 0;
};

/// The preset row for `name`; nullptr when the experiment has none.
const ExperimentPreset* find_preset(std::string_view name);

/// Preset lookup that must succeed (registered experiments).
const ExperimentPreset& preset_for(std::string_view name);

// --- resolution helpers (explicit flag wins, else quick/full preset) --------

std::uint64_t resolve_n(const ExperimentPreset& preset,
                        const ExperimentParams& params);
std::uint64_t resolve_trials(const ExperimentPreset& preset,
                             const ExperimentParams& params);
std::uint64_t resolve_kmax(const ExperimentPreset& preset,
                           const ExperimentParams& params);
std::uint64_t resolve_k(const ExperimentPreset& preset,
                        const ExperimentParams& params);
double resolve_ck(const ExperimentPreset& preset,
                  const ExperimentParams& params);
std::uint64_t resolve_target(const ExperimentPreset& preset,
                             const ExperimentParams& params);

/// The drivers' common Monte-Carlo knob: max_trials = trials,
/// min_trials = min(max(trials / 4, 8), trials).
McOptions preset_mc(std::uint64_t trials);

/// ExperimentOptions with the common preset_mc trial policy applied.
ExperimentOptions preset_experiment_options(std::uint64_t seed,
                                            std::uint64_t trials);

}  // namespace manywalks::cli
