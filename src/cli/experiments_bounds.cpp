// Registrations for the inequality/concentration experiments: the
// Baby-Matthews bound (Thms 13/14), the mixing-time bound (Thm 9), the
// Lemma 16 cover-probability guarantee, and Aldous' concentration theorem
// (Thm 17).
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "cli/experiments_common.hpp"
#include "core/analyzer.hpp"
#include "core/experiments.hpp"
#include "theory/bounds.hpp"
#include "theory/exact.hpp"
#include "theory/finite_time.hpp"
#include "util/stats.hpp"

namespace manywalks::cli {

namespace {

// --- fig_matthews_bounds (Thms 13/14) ---------------------------------------

ExperimentResult run_matthews_bounds(const ExperimentParams& params,
                                     ThreadPool& pool) {
  const ExperimentPreset& preset = preset_for("fig_matthews_bounds");
  const std::uint64_t seed = params.seed;
  // Exact h_max needs an O(n^3) dense factorization: cap n at ~1024.
  const std::uint64_t target_n = resolve_n(preset, params);
  const std::uint64_t target_trials = resolve_trials(preset, params);

  McOptions mc = preset_mc(target_trials);
  mc.seed = seed;

  const std::vector<GraphFamily> families = {
      GraphFamily::kComplete, GraphFamily::kHypercube, GraphFamily::kGrid2d,
      GraphFamily::kMargulis, GraphFamily::kCycle, GraphFamily::kBalancedTree};

  ResultTable table("matthews",
                    "Thm 13 (Baby Matthews) — C^k vs (e/k)·h_max·H_n with "
                    "exact h_max");
  table.add_column("graph", /*left=*/true)
      .add_column("h_max (exact)")
      .add_column("k")
      .add_column("C^k measured")
      .add_column("Thm13 bound")
      .add_column("C^k/bound (≤1)")
      .add_column("e/k·h·H_n")
      .add_column("Thm14 ref");

  bool all_hold = true;
  for (GraphFamily family : families) {
    const FamilyInstance instance =
        make_family_instance(family, target_n, seed);
    const double h_max = hitting_extremes(instance.graph).h_max;
    const std::uint64_t nn = instance.graph.num_vertices();
    const auto log_n = static_cast<unsigned>(
        std::max(2.0, std::floor(std::log(static_cast<double>(nn)))));
    const std::vector<unsigned> ks = {1, 2, log_n};

    McOptions local = mc;
    local.seed = mix64(seed ^ (0x1337 + static_cast<std::uint64_t>(family)));
    const auto curve = estimate_speedup_curve(instance.graph, instance.start,
                                              ks, local, lane_cover_options(), &pool);
    const double cover = curve.front().single.ci.mean;
    for (const SpeedupEstimate& p : curve) {
      const double rigorous = baby_matthews_bound(h_max, nn, p.k);
      const double asymptotic = baby_matthews_asymptotic(h_max, nn, p.k);
      const double thm14 = theorem14_reference(
          cover, h_max, p.k, std::log(std::max(2.0, cover / h_max)));
      const double ratio = p.multi.ci.mean / rigorous;
      all_hold = all_hold && ratio <= 1.0;
      table.begin_row();
      table.text(instance.name);
      table.real(h_max);
      table.count(p.k);
      table.mean_pm(p.multi);
      table.real(rigorous);
      table.real(ratio, 3);
      table.real(asymptotic);
      table.real(thm14);
    }
    table.rule();
  }

  ExperimentResult result;
  push_common_params(result, seed, params.full, target_n, target_trials,
                     pool.size());
  result.tables.push_back(std::move(table));
  result.has_verdict = true;
  result.passed = all_hold;
  result.notes = {all_hold
                      ? "All measured C^k satisfy the rigorous Thm 13 bound "
                        "(column ≤ 1). ✓"
                      : "BOUND VIOLATION — investigate! ✗"};
  return result;
}

// --- fig_mixing_bound (Thm 9) -----------------------------------------------

ExperimentResult run_mixing_bound(const ExperimentParams& params,
                                  ThreadPool& pool) {
  const ExperimentPreset& preset = preset_for("fig_mixing_bound");
  const std::uint64_t seed = params.seed;
  const std::uint64_t target_n = resolve_n(preset, params);
  const std::uint64_t target_trials = resolve_trials(preset, params);
  const ExperimentOptions options =
      preset_experiment_options(seed, target_trials);

  // Regular families ordered by mixing speed.
  const std::vector<GraphFamily> families = {
      GraphFamily::kComplete, GraphFamily::kMargulis, GraphFamily::kHypercube,
      GraphFamily::kGrid2d, GraphFamily::kCycle};
  const std::vector<unsigned> ks = {4, 16, 64};

  ResultTable table("mixing",
                    "Thm 9 — measured speed-up vs the mixing-time bound");
  table.add_column("graph", /*left=*/true)
      .add_column("t_mix")
      .add_column("k")
      .add_column("S^k")
      .add_column("bound k/(t_m ln n)")
      .add_column("ratio (≥ Ω(1))");

  for (GraphFamily family : families) {
    const FamilyInstance instance =
        make_family_instance(family, target_n, seed);
    const MixingMeasurement mixing = measure_mixing_time(
        instance.graph, instance.needs_lazy_mixing, options.mixing_cap,
        std::vector<Vertex>{instance.start});
    const SpeedupCurveResult curve =
        run_speedup_curve(instance, ks, options, &pool);
    for (const SpeedupEstimate& p : curve.points) {
      const double t_m = mixing.converged
                             ? std::max<double>(
                                   1.0, static_cast<double>(mixing.time))
                             : static_cast<double>(options.mixing_cap);
      const double reference = theorem9_speedup_reference(
          p.k, t_m, instance.graph.num_vertices());
      table.begin_row();
      table.text(instance.name + (mixing.laziness > 0 ? " (lazy mix)" : ""));
      table.text(mixing.converged ? format_count(mixing.time)
                                  : "> " + format_count(mixing.time));
      table.count(p.k);
      table.mean_pm(p);
      table.real(reference, 3);
      table.real(p.speedup / reference, 3);
    }
    table.rule();
  }

  ExperimentResult result;
  push_common_params(result, seed, params.full, target_n, target_trials,
                     pool.size());
  result.tables.push_back(std::move(table));
  result.notes = {
      "Paper claim (Thm 9): the last column stays bounded below across "
      "families; the bound",
      "is informative (ratio near small constant · 1) only for fast-mixing "
      "graphs."};
  return result;
}

// --- fig_lemma16 ------------------------------------------------------------

/// Fraction of trials in which a k-walk from `start` covers within
/// `length` rounds.
double measure_cover_probability(const Graph& g, Vertex start, unsigned k,
                                 std::uint64_t length, std::uint64_t trials,
                                 std::uint64_t seed, ThreadPool* pool) {
  McOptions mc;
  mc.min_trials = trials;
  mc.max_trials = trials;
  mc.seed = seed;
  CoverOptions cover = lane_cover_options();
  cover.step_cap = length;
  const McResult r = run_monte_carlo(
      [&g, start, k, &cover](std::uint64_t, Rng& rng) {
        const CoverSample s = sample_k_cover_time(g, start, k, rng, cover);
        return TrialOutcome{s.covered ? 1.0 : 0.0, false};
      },
      mc, pool);
  return r.ci.mean;
}

ExperimentResult run_lemma16(const ExperimentParams& params,
                             ThreadPool& pool) {
  const ExperimentPreset& preset = preset_for("fig_lemma16");
  const std::uint64_t seed = params.seed;
  const std::uint64_t target_n = resolve_n(preset, params);
  const std::uint64_t target_trials = resolve_trials(preset, params);

  const FamilyInstance instance =
      make_family_instance(GraphFamily::kGrid2d, target_n, seed);
  const Graph& g = instance.graph;

  // Calibrate T_c so that p_c is comfortably large: twice the estimated
  // cover time.
  McOptions mc;
  mc.min_trials = 200;
  mc.max_trials = 200;
  mc.seed = mix64(seed ^ 0xcafeULL);
  const McResult cover_est =
      estimate_cover_time(g, instance.start, mc, lane_cover_options(), &pool);
  const auto t_c = static_cast<std::uint64_t>(2.0 * cover_est.ci.mean);
  const double p_c = measure_cover_probability(
      g, instance.start, 1, t_c, target_trials, mix64(seed ^ 0x1ULL), &pool);

  // T_h = 2 h_max gives p_h >= 1/2 by Markov; compute p_h exactly.
  const double h_max = hitting_extremes(g).h_max;
  const auto t_h = static_cast<std::uint64_t>(2.0 * h_max);
  const PairVisitProbability p_h = min_visit_probability_within(g, t_h);

  ExperimentResult result;
  push_common_params(result, seed, params.full, target_n, target_trials,
                     pool.size());
  result.preamble.push_back(
      instance.name + ": T_c = " + format_count(t_c) + " with p_c ≈ " +
      format_double(p_c, 3) + ";  T_h = 2·h_max = " + format_count(t_h) +
      " with exact p_h = " + format_double(p_h.probability, 3) +
      " (worst pair " + std::to_string(p_h.from) + "→" +
      std::to_string(p_h.to) + ")");

  ResultTable table("lemma16",
                    "Lemma 16 — guaranteed vs measured k-walk cover "
                    "probability at length T_c/k + ℓ·T_h");
  table.add_column("k")
      .add_column("ℓ")
      .add_column("walk length")
      .add_column("Lemma 16 bound")
      .add_column("measured")
      .add_column("margin");

  bool all_hold = true;
  for (unsigned k : {2u, 4u, 8u}) {
    for (unsigned ell : {2u, 3u, 5u}) {
      const std::uint64_t length = t_c / k + ell * t_h;
      const double bound =
          lemma16_cover_probability(p_c, p_h.probability, k, ell);
      const double measured = measure_cover_probability(
          g, instance.start, k, length, target_trials,
          mix64(seed ^ (0x16ULL + k * 31 + ell)), &pool);
      // Allow three binomial standard errors of slack.
      const double se =
          std::sqrt(std::max(measured * (1.0 - measured), 1e-9) /
                    static_cast<double>(target_trials));
      all_hold = all_hold && (measured + 3.0 * se >= bound);
      table.begin_row();
      table.count(k);
      table.count(ell);
      table.count(length);
      table.real(bound, 3);
      table.real(measured, 3);
      table.real(measured - bound, 3);
    }
  }

  result.tables.push_back(std::move(table));
  result.has_verdict = true;
  result.passed = all_hold;
  result.notes = {all_hold ? "Measured cover probability dominates the "
                             "Lemma 16 bound everywhere. ✓"
                           : "BOUND VIOLATION — investigate! ✗"};
  return result;
}

// --- fig_aldous_concentration (Thm 17) --------------------------------------

ExperimentResult run_aldous_concentration(const ExperimentParams& params,
                                          ThreadPool& pool) {
  const ExperimentPreset& preset = preset_for("fig_aldous_concentration");
  const std::uint64_t seed = params.seed;
  const std::uint64_t samples = resolve_trials(preset, params);

  std::vector<std::uint64_t> sizes;
  if (params.n != 0) {
    sizes = {params.n};
  } else {
    sizes = params.full ? std::vector<std::uint64_t>{256, 1024, 4096}
                        : std::vector<std::uint64_t>{64, 256, 1024};
  }
  const std::vector<GraphFamily> families = {
      GraphFamily::kComplete, GraphFamily::kHypercube, GraphFamily::kGrid2d,
      GraphFamily::kCycle};

  ResultTable table("concentration",
                    "Thm 17 — concentration of tau/C (coefficient of "
                    "variation and quantiles)");
  table.add_column("graph", /*left=*/true)
      .add_column("n")
      .add_column("mean C")
      .add_column("CV = sd/mean")
      .add_column("q10/mean")
      .add_column("q50/mean")
      .add_column("q90/mean");

  const std::vector<double> probs = {0.1, 0.5, 0.9};
  for (GraphFamily family : families) {
    for (std::uint64_t n : sizes) {
      const FamilyInstance instance = make_family_instance(family, n, seed);
      const auto values = collect_cover_samples(
          instance.graph, instance.start, 1, samples,
          mix64(seed ^ (n * 31 + static_cast<std::uint64_t>(family))),
          lane_cover_options(), &pool);
      RunningStats stats;
      for (double v : values) stats.add(v);
      const auto qs = quantiles(values, probs);
      table.begin_row();
      table.text(instance.name);
      table.count(instance.graph.num_vertices());
      table.real(stats.mean());
      table.real(stats.stddev() / stats.mean(), 3);
      table.real(qs[0] / stats.mean(), 3);
      table.real(qs[1] / stats.mean(), 3);
      table.real(qs[2] / stats.mean(), 3);
    }
    table.rule();
  }

  ExperimentResult result;
  push_common_params(result, seed, params.full, params.n, samples,
                     pool.size());
  result.tables.push_back(std::move(table));
  result.notes = {
      "Expected: CV shrinks with n and quantiles squeeze toward 1 for the "
      "Matthews-tight",
      "families (C/h_max = Θ(log n) -> ∞), but stays Θ(1) on the cycle "
      "(C/h_max ≈ 2) —",
      "exactly the dichotomy Thm 17 requires for the Thm 14 proof."};
  return result;
}

}  // namespace

void register_bounds_experiments(ExperimentRegistry& registry) {
  registry.add({"fig_matthews_bounds",
                "Baby-Matthews: C^k ≤ (e/k)·h_max·H_n with exact h_max",
                "Theorems 13 & 14 (§6)",
                /*default_seed=*/13,
                {}},
               run_matthews_bounds);
  registry.add({"fig_mixing_bound",
                "regular graphs: S^k ≥ Ω(k / (t_mix ln n))",
                "Theorem 9 (§4)",
                /*default_seed=*/9,
                {}},
               run_mixing_bound);
  registry.add({"fig_lemma16",
                "guaranteed k-walk cover probability at T_c/k + ℓ·T_h",
                "Lemma 16 (§5)",
                /*default_seed=*/16,
                {}},
               run_lemma16);
  registry.add({"fig_aldous_concentration",
                "tau/C concentrates iff C/h_max → ∞",
                "Theorem 17 (§6)",
                /*default_seed=*/17,
                {}},
               run_aldous_concentration);
}

}  // namespace manywalks::cli
