// Research CLI: full speed-up curve with confidence intervals and theory
// columns for any family/size/k-range, plus the graph profile (h_max,
// mixing time, Matthews gap) the paper's theorems are phrased in.
//
//   ./speedup_explorer --family cycle --n 513 --kmax 64
//   ./speedup_explorer --family margulis --n 1024 --kmax 256 --trials 300
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <vector>

#include "core/analyzer.hpp"
#include "core/experiments.hpp"
#include "theory/bounds.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace manywalks;

  std::string family_str = "cycle";
  std::uint64_t n = 257;
  std::uint64_t kmax = 32;
  std::uint64_t trials = 200;
  std::uint64_t seed = 1;
  bool skip_profile = false;

  ArgParser parser("speedup_explorer",
                   "speed-up curves with theory reference columns");
  parser.add_option("family", &family_str, "graph family name")
      .add_option("n", &n, "target vertex count")
      .add_option("kmax", &kmax, "largest k (powers of two from 1)")
      .add_option("trials", &trials, "Monte-Carlo trials per point")
      .add_option("seed", &seed, "random seed")
      .add_flag("no-profile", &skip_profile,
                "skip the h_max / mixing-time profile (faster)");
  if (!parser.parse(argc, argv)) return 1;

  const auto family = family_from_name(family_str);
  if (!family) {
    std::cerr << "unknown family '" << family_str << "'; try one of:";
    for (GraphFamily f : all_families()) std::cerr << ' ' << family_name(f);
    std::cerr << '\n';
    return 1;
  }

  const FamilyInstance instance = make_family_instance(*family, n, seed);
  std::cout << describe(instance.graph) << "  [" << instance.name
            << "], start " << instance.start << "\n";

  ExperimentOptions options;
  options.seed = seed;
  options.mc.min_trials =
      std::min(std::max<std::uint64_t>(trials / 4, 8), trials);
  options.mc.max_trials = trials;

  if (!skip_profile) {
    ProfileOptions profile_options;
    profile_options.mc = options.mc;
    profile_options.mc.seed = mix64(seed ^ 0x9999);
    const GraphProfile profile = profile_graph(instance, profile_options);
    TextTable ptable("Graph profile");
    ptable.add_column("quantity", TextTable::Align::kLeft)
        .add_column("measured")
        .add_column("paper prediction", TextTable::Align::kLeft);
    ptable.begin_row()
        .cell("cover time C")
        .cell(format_mean_pm(profile.cover.ci.mean,
                             profile.cover.ci.half_width))
        .cell(instance.theory.cover_formula + std::string(" = ") +
              format_double(instance.theory.cover));
    ptable.begin_row()
        .cell(profile.h_max.exact ? "h_max (exact)" : "h_max (sampled)")
        .cell(format_double(profile.h_max.value))
        .cell(instance.theory.hitting_formula + std::string(" = ") +
              format_double(instance.theory.h_max));
    ptable.begin_row()
        .cell(profile.mixing.laziness > 0 ? "t_mix (lazy)" : "t_mix")
        .cell(profile.mixing.converged
                  ? format_count(profile.mixing.time)
                  : "> " + format_count(profile.mixing.time))
        .cell(instance.theory.mixing_formula);
    ptable.begin_row()
        .cell("gap g = C/h_max")
        .cell(format_double(profile.gap, 3))
        .cell("Thm 5: linear speed-up for k ≲ g^{1-ε}");
    std::cout << '\n' << ptable;
  }

  std::vector<unsigned> ks;
  for (std::uint64_t k = 1; k <= kmax; k *= 2) {
    ks.push_back(static_cast<unsigned>(k));
  }
  const SpeedupCurveResult curve = run_speedup_curve(instance, ks, options);

  // Reference column: the regime Table 1 predicts for this family.
  std::vector<double> reference;
  std::string reference_header;
  switch (*family) {
    case GraphFamily::kCycle:
    case GraphFamily::kPath:
      reference_header = "ln k (paper: Θ(log k))";
      for (unsigned k : ks) {
        reference.push_back(std::max(1.0, std::log(static_cast<double>(k))));
      }
      break;
    default:
      reference_header = "k (paper: linear regime)";
      for (unsigned k : ks) reference.push_back(static_cast<double>(k));
      break;
  }
  std::cout << '\n'
            << render_speedup_curve(curve, reference_header, reference)
            << '\n';
  return 0;
}
