// Giant-graph speed-up experiments on implicit substrates (no CSR).
//
// Every other experiment materializes a CSR Graph, which caps n at the
// memory of an explicit edge list (a 10^8-vertex cycle is ~1.6 GB of CSR)
// long before the paper's asymptotic regimes separate. These two run the
// walk engine directly on closed-form substrates at n = 10^7 (quick) to
// 10^8 (--full), where the only O(n) allocation is the n/8-byte visit
// tracker of each worker thread's pooled engine.
//
// Full cover is out of reach at that scale (Θ(n²) on the cycle, Θ(n log²n)
// on the torus), so both experiments measure the PARTIAL-cover speed-up
// S^k(d) = T¹(d) / T^k(d), the expected rounds for k walks from one vertex
// to visit d distinct vertices. On the cycle that is exactly the quantity
// the paper's own Lemmas 21/22 bound — the spread of k walks racing around
// the ring — and it reproduces the Θ(log k) shape of Theorem 6; on the
// torus small k give the near-linear regime of Theorem 8.
#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "cli/experiments_common.hpp"
#include "graph/substrate.hpp"
#include "mc/estimators.hpp"

namespace manywalks::cli {

namespace {

std::string memory_model_line(std::uint64_t n, std::uint64_t degree) {
  // CSR cost: (n+1) 8-byte offsets + degree*n 4-byte targets.
  const double csr_mib = (8.0 * (static_cast<double>(n) + 1.0) +
                          4.0 * static_cast<double>(degree * n)) /
                         (1024.0 * 1024.0);
  const double tracker_mib = static_cast<double>(n) / 8.0 / (1024.0 * 1024.0);
  return "implicit substrate at n = " + format_count(n) +
         ": no CSR built (an explicit graph would hold ~" +
         format_double(csr_mib, 3) + " MiB of CSR); the only O(n) state is "
         "each worker's n/8-byte visit tracker (" +
         format_double(tracker_mib, 3) + " MiB).";
}

/// Saturating step cap from a double estimate (a user-supplied --target
/// near the Vertex limit would overflow 64 * target² in uint64).
std::uint64_t saturating_cap(double cap) {
  constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
  if (!(cap < static_cast<double>(kMax))) return kMax;
  return static_cast<std::uint64_t>(cap);
}

ResultTable speedup_table(const std::string& id, const std::string& title,
                          const std::vector<SpeedupEstimate>& curve,
                          bool log_reference) {
  ResultTable table(id, title);
  table.add_column("k")
      .add_column("T^k(target)")
      .add_column("S^k")
      .add_column(log_reference ? "S^k / ln k" : "S^k / k");
  for (const SpeedupEstimate& p : curve) {
    table.begin_row();
    table.count(p.k);
    table.mean_pm(p.multi);
    table.mean_pm(p);
    if (log_reference) {
      if (p.k >= 2) {
        table.real(p.speedup / std::log(static_cast<double>(p.k)), 3);
      } else {
        table.blank();
      }
    } else {
      table.real(p.speedup / p.k, 3);
    }
  }
  return table;
}

// --- giant-cycle-speedup (Thm 6 at n = 10^7–10^8) ---------------------------

ExperimentResult run_giant_cycle(const ExperimentParams& params,
                                 ThreadPool& pool) {
  const ExperimentPreset& preset = preset_for("giant-cycle-speedup");
  const std::uint64_t seed = params.seed;
  const std::uint64_t n64 = std::max<std::uint64_t>(resolve_n(preset, params), 3);
  MW_REQUIRE(n64 <= std::numeric_limits<Vertex>::max(),
             "giant-cycle-speedup: n " << n64 << " exceeds the 32-bit vertex "
             "limit " << std::numeric_limits<Vertex>::max());
  const auto n = static_cast<Vertex>(n64);
  const std::uint64_t trials = resolve_trials(preset, params);
  const std::uint64_t k_limit =
      checked_walk_count("giant-cycle-speedup", "--kmax",
                         resolve_kmax(preset, params));
  const Vertex target = clamp_cover_target(resolve_target(preset, params), n);

  const CycleSubstrate substrate(n);
  const std::vector<unsigned> ks = geometric_ks(k_limit);

  // A single walk reaches d distinct vertices (range d on the ring) in
  // ~d²/2 expected rounds; 64x headroom keeps censoring out of healthy
  // runs, and a pathological draw that does hit the cap is now flagged in
  // every sink rather than silently averaged.
  CoverOptions cover = lane_cover_options();
  cover.step_cap = saturating_cap(
      64.0 * static_cast<double>(target) * static_cast<double>(target));
  cover.lane_shards = params.lane_shards;

  McOptions mc = preset_mc(trials);
  mc.seed = mix64(seed ^ 0x61a27c1eULL);
  const std::vector<SpeedupEstimate> curve = estimate_speedup_curve_to_target(
      InCore(substrate), /*start=*/0, target, ks, mc, cover, &pool);

  ExperimentResult result;
  push_common_params(result, seed, params.full, n64, trials, pool.size());
  push_param(result, "kmax", k_limit);
  push_param(result, "target", static_cast<std::uint64_t>(target));
  push_parallelism_params(result, cover, k_limit);
  result.preamble.push_back(memory_model_line(n64, /*degree=*/2));
  result.tables.push_back(speedup_table(
      "speedup",
      "Thm 6 at scale — cycle n = " + format_count(n64) + ", rounds to visit " +
          format_count(target) + " distinct vertices",
      curve, /*log_reference=*/true));
  result.notes = {
      "Paper claim (Thm 6 / Lemmas 21–22): k walks from one vertex spread "
      "only Θ(log k) faster",
      "than one, so the last column is Θ(1). No CSR exists at this n; the "
      "implicit substrate",
      "is RNG-stream-identical to the CSR engine (tests/test_substrate.cpp), "
      "so these numbers",
      "are exactly what an (infeasible) explicit graph would produce."};
  return result;
}

// --- giant-torus-speedup (Thm 8 at n = 10^7–10^8) ---------------------------

ExperimentResult run_giant_torus(const ExperimentParams& params,
                                 ThreadPool& pool) {
  const ExperimentPreset& preset = preset_for("giant-torus-speedup");
  const std::uint64_t seed = params.seed;
  const std::uint64_t requested_n =
      std::max<std::uint64_t>(resolve_n(preset, params), 9);
  const auto side = static_cast<Vertex>(std::max<std::uint64_t>(
      3, static_cast<std::uint64_t>(
             std::llround(std::sqrt(static_cast<double>(requested_n))))));
  const TorusSubstrate substrate(side);
  const Vertex n = substrate.num_vertices();
  const std::uint64_t trials = resolve_trials(preset, params);
  const std::uint64_t k_limit =
      checked_walk_count("giant-torus-speedup", "--kmax",
                         resolve_kmax(preset, params));
  const Vertex target = clamp_cover_target(resolve_target(preset, params), n);

  const std::vector<unsigned> ks = geometric_ks(k_limit);

  // A single 2-d torus walk visits ~πt/ln t distinct vertices in t rounds,
  // so d distinct take ~(d/π)·ln d rounds; 64x headroom as on the cycle.
  const double d = static_cast<double>(target);
  CoverOptions cover = lane_cover_options();
  cover.step_cap = saturating_cap(64.0 * d * std::max(std::log(d), 1.0));
  cover.lane_shards = params.lane_shards;

  McOptions mc = preset_mc(trials);
  mc.seed = mix64(seed ^ 0x9a7052e5ULL);
  const std::vector<SpeedupEstimate> curve = estimate_speedup_curve_to_target(
      InCore(substrate), /*start=*/0, target, ks, mc, cover, &pool);

  ExperimentResult result;
  push_common_params(result, seed, params.full,
                     static_cast<std::uint64_t>(n), trials, pool.size());
  push_param(result, "side", static_cast<std::uint64_t>(side));
  push_param(result, "kmax", k_limit);
  push_param(result, "target", static_cast<std::uint64_t>(target));
  push_parallelism_params(result, cover, k_limit);
  result.preamble.push_back(memory_model_line(n, /*degree=*/4));
  result.tables.push_back(speedup_table(
      "speedup",
      "Thm 8 at scale — torus " + format_count(side) + "x" +
          format_count(side) + ", rounds to visit " + format_count(target) +
          " distinct vertices",
      curve, /*log_reference=*/false));
  result.notes = {
      "Paper claim (Thm 8): on the 2-d torus the speed-up is near-linear "
      "(efficiency S^k/k ≈ 1)",
      "while k stays small against log n, and collapses once k outruns the "
      "polylog regime.",
      "At n = 10^7–10^8 the regimes separate visibly — sizes no CSR graph "
      "reaches."};
  return result;
}

}  // namespace

void register_giant_experiments(ExperimentRegistry& registry) {
  registry.add({"giant-cycle-speedup",
                "implicit 10^7–10^8 cycle: partial-cover S^k = Θ(log k)",
                "Theorem 6 (§5) at giant n",
                /*default_seed=*/621,
                {ExtraParam::kKmax, ExtraParam::kTarget,
                 ExtraParam::kLaneShards}},
               run_giant_cycle);
  registry.add({"giant-torus-speedup",
                "implicit 10^7–10^8 torus: near-linear partial-cover S^k",
                "Theorem 8 (§4) at giant n",
                /*default_seed=*/824,
                {ExtraParam::kKmax, ExtraParam::kTarget,
                 ExtraParam::kLaneShards}},
               run_giant_torus);
}

}  // namespace manywalks::cli
