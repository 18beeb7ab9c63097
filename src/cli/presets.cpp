#include "cli/presets.hpp"

#include <algorithm>
#include <array>

#include "util/check.hpp"

namespace manywalks::cli {

namespace {

// Quick presets target ~a minute on one core; --full targets the paper's
// scales (the values are the ones the standalone drivers shipped with).
// The giant-* experiments run on implicit substrates: their n is the
// 10^7–10^8 range no CSR graph reaches, and `target` is the distinct-vertex
// partial-cover goal (full cover is Θ(n²) on the cycle — infeasible there).
constexpr std::array<ExperimentPreset, 17> kPresets{{
    {"table1_summary", 256, 4096, 120, 400},
    {"fig_cycle_speedup", 257, 1025, 150, 400, /*kmax=*/256, 4096},
    {"fig_expander_speedup", 256, 1024, 120, 300},
    {"fig_grid_spectrum", 441, 4096, 150, 300},
    {"fig_grid_lower_bound", 441, 4096, 120, 300},
    {"fig_barbell_speedup", 0, 0, 150, 400, 0, 0, 0, /*ck=*/20.0},
    {"fig_conjectures", 128, 512, 100, 250},
    {"fig_matthews_bounds", 225, 900, 120, 300},
    {"fig_mixing_bound", 256, 1024, 120, 300},
    {"fig_lemma16", 100, 256, 1500, 4000},
    {"fig_aldous_concentration", 0, 0, 600, 3000},
    {"fig_stationary_start", 256, 1024, 120, 300},
    {"fig_start_placement", 256, 1024, 120, 300, 0, 0, /*k=*/16},
    {"giant-cycle-speedup", 10'000'000, 100'000'000, 8, 16,
     /*kmax=*/64, 256, 0, 0.0, /*target=*/4000, 20'000},
    {"giant-torus-speedup", 10'000'000, 100'000'000, 8, 16,
     /*kmax=*/64, 256, 0, 0.0, /*target=*/1'000'000, 4'000'000},
    // Stored-graph (--graph=FILE.mwg) experiments: n comes from the file,
    // so the size presets stay 0 and only trial/k budgets differ.
    {"mwg-speedup", 0, 0, 24, 100, /*kmax=*/16, 64},
    {"mwg-starts", 0, 0, 24, 100, 0, 0, /*k=*/8},
}};

}  // namespace

const ExperimentPreset* find_preset(std::string_view name) {
  for (const ExperimentPreset& preset : kPresets) {
    if (preset.name == name) return &preset;
  }
  return nullptr;
}

const ExperimentPreset& preset_for(std::string_view name) {
  const ExperimentPreset* preset = find_preset(name);
  MW_REQUIRE(preset != nullptr, "no preset for experiment '" << name << "'");
  return *preset;
}

std::uint64_t resolve_n(const ExperimentPreset& preset,
                        const ExperimentParams& params) {
  if (params.n != 0) return params.n;
  return params.full ? preset.full_n : preset.quick_n;
}

std::uint64_t resolve_trials(const ExperimentPreset& preset,
                             const ExperimentParams& params) {
  if (params.trials != 0) return params.trials;
  return params.full ? preset.full_trials : preset.quick_trials;
}

std::uint64_t resolve_kmax(const ExperimentPreset& preset,
                           const ExperimentParams& params) {
  if (params.kmax != 0) return params.kmax;
  return params.full ? preset.full_kmax : preset.quick_kmax;
}

std::uint64_t resolve_k(const ExperimentPreset& preset,
                        const ExperimentParams& params) {
  return params.k != 0 ? params.k : preset.default_k;
}

double resolve_ck(const ExperimentPreset& preset,
                  const ExperimentParams& params) {
  return params.ck != 0.0 ? params.ck : preset.default_ck;
}

std::uint64_t resolve_target(const ExperimentPreset& preset,
                             const ExperimentParams& params) {
  if (params.target != 0) return params.target;
  return params.full ? preset.full_target : preset.quick_target;
}

McOptions preset_mc(std::uint64_t trials) {
  McOptions mc;
  mc.min_trials =
      std::min<std::uint64_t>(std::max<std::uint64_t>(trials / 4, 8), trials);
  mc.max_trials = trials;
  return mc;
}

ExperimentOptions preset_experiment_options(std::uint64_t seed,
                                            std::uint64_t trials) {
  ExperimentOptions options;
  options.seed = seed;
  options.mc = preset_mc(trials);
  return options;
}

}  // namespace manywalks::cli
