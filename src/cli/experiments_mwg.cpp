// Registrations for the stored-graph experiments: `--graph=FILE.mwg`
// versions of the paper's speed-up and start-placement measurements,
// running the walk engine zero-copy off a memory-mapped mwg file. This is
// how the k-walk results get measured on real-world graphs (SNAP dumps
// via `manywalks graph convert`) instead of only the synthetic families.
//
// `--block-walk` switches both experiments to the out-of-core
// block-scheduled engine (walk/block_engine.hpp) with an explicit
// `--mem-budget`: the graph must be mwg v2, only its metadata stays
// resident, and — determinism contract v4 — every number in the tables
// is bit-identical to the in-core run at any budget.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "cli/experiments_common.hpp"
#include "cli/experiments_mwg.hpp"
#include "mc/estimators.hpp"
#include "storage/block_store.hpp"
#include "storage/mapped_graph.hpp"
#include "util/options.hpp"
#include "walk/block_engine.hpp"
#include "walk/sampling.hpp"

namespace manywalks::cli {

namespace {

Vertex checked_start(const char* name, const ExperimentParams& params,
                     Vertex n) {
  MW_REQUIRE(params.start < n, name << ": --start " << params.start
                                    << " out of range (n=" << n << ")");
  return static_cast<Vertex>(params.start);
}

std::string substrate_preamble(const CsrSubstrate& substrate,
                               const std::string& source) {
  return "stored graph " + source + ": n = " +
         format_count(substrate.num_vertices()) + ", arcs = " +
         format_count(substrate.offsets().back()) +
         " — adjacency memory-mapped read-only; the engine binds the "
         "mapped arrays through the same CsrSubstrate as an in-core graph, "
         "so the streams are bit-identical.";
}

MappedGraph open_mapped(const char* name, const ExperimentParams& params) {
  MW_REQUIRE(!params.graph.empty(),
             name << " needs --graph=FILE.mwg (create one with `manywalks "
                     "graph gen` or `manywalks graph convert`)");
  return MappedGraph(params.graph);
}

// --- shared table/notes builders (in-core and blocked paths emit the
// same rows, which is how the v4 bit-identity contract stays visible in
// the output, not just in the goldens) ---------------------------------

ResultTable speedup_table(const std::string& source, Vertex start,
                          Vertex target, Vertex n,
                          const std::vector<SpeedupEstimate>& curve) {
  ResultTable table("speedup",
                    source + " — S^k from vertex " + format_count(start) +
                        (target == n ? " (full cover)"
                                     : ", rounds to visit " +
                                           format_count(target) +
                                           " distinct vertices"));
  table.add_column("k")
      .add_column("C^k")
      .add_column("S^k")
      .add_column("S^k / k")
      .add_column("S^k / ln k");
  for (const SpeedupEstimate& p : curve) {
    table.begin_row();
    table.count(p.k);
    table.mean_pm(p.multi);
    table.mean_pm(p);
    table.real(p.speedup / p.k, 3);
    if (p.k >= 2) {
      table.real(p.speedup / std::log(static_cast<double>(p.k)), 3);
    } else {
      table.blank();
    }
  }
  return table;
}

std::vector<std::string> speedup_notes() {
  return {
      "Conjectures 10/11 predict log k ≲ S^k ≲ k on ANY graph: the last "
      "two columns bracket",
      "where this graph falls between the cycle's Θ(log k) and the "
      "expander's Θ(k) regimes."};
}

ResultTable starts_table(const std::string& source, unsigned k, Vertex start,
                         const McResult& same, const McResult& stationary,
                         const McResult& uniform) {
  ResultTable table("starts", source + " — C^k (k = " + format_count(k) +
                                  ") by start placement");
  table.add_column("placement", /*left=*/true)
      .add_column("C^k")
      .add_column("vs same-vertex");
  table.begin_row();
  table.text("same-vertex (" + format_count(start) + ")");
  table.mean_pm(same);
  table.real(1.0, 3);
  table.begin_row();
  table.text("stationary");
  table.mean_pm(stationary);
  table.real(same.ci.mean / stationary.ci.mean, 3);
  table.begin_row();
  table.text("uniform");
  table.mean_pm(uniform);
  table.real(same.ci.mean / uniform.ci.mean, 3);
  return table;
}

std::vector<std::string> starts_notes() {
  return {
      "Placement sensitivity locates the graph on the paper's map: "
      "irrelevant on expanders",
      "(walks disperse within t_mix), ~constant-factor on tori, decisive "
      "around bottlenecks",
      "(Thm 7's barbell center). Stationary starts are re-drawn per trial "
      "(§1.1 setting)."};
}

// --- out-of-core (--block-walk) runners -------------------------------

constexpr std::uint64_t kDefaultMemBudget = std::uint64_t{256} << 20;

std::uint64_t resolve_mem_budget(const ExperimentParams& params) {
  return params.mem_budget.empty() ? kDefaultMemBudget
                                   : parse_byte_size(params.mem_budget);
}

BlockedGraph open_blocked(const char* name, const ExperimentParams& params) {
  MW_REQUIRE(!params.graph.empty(),
             name << " needs --graph=FILE.mwg (create one with `manywalks "
                     "graph gen` or `manywalks graph convert`)");
  return BlockedGraph(params.graph);
}

std::string blocked_preamble(const BlockedGraph& graph,
                             const std::string& source,
                             std::uint64_t budget) {
  return "stored graph " + source + ": n = " +
         format_count(graph.num_vertices()) + ", arcs = " +
         format_count(graph.num_arcs()) + " — mwg v2, " +
         format_count(graph.num_blocks()) + " blocks of 2^" +
         std::to_string(graph.block_bits()) +
         " vertices; block-scheduled out-of-core engine with a " +
         format_count(budget) +
         "-byte resident-extent budget (only graph metadata stays mapped). "
         "Results are bit-identical to the in-core run at any budget "
         "(determinism contract v4).";
}

std::string blocked_cache_note(const BlockedRunTotals& totals) {
  // Counters reset per trial (see estimate_cover_to_target_blocked), so
  // these are per-trial aggregates: totals are sums of independent trial
  // readings and the peak is a true heaviest-trial figure.
  std::string note =
      "block engine (" + format_count(totals.trials) +
      " trials, counters reset per trial): " +
      format_count(totals.cache_loads) + " extent loads (" +
      format_count(totals.cache_hits) + " cache hits";
  const std::uint64_t lookups = totals.cache_loads + totals.cache_hits;
  if (lookups > 0) {
    char rate[32];
    std::snprintf(rate, sizeof(rate), ", %.1f%%",
                  100.0 * static_cast<double>(totals.cache_hits) /
                      static_cast<double>(lookups));
    note += rate;
  }
  note += ", " + format_count(totals.cache_evictions) + " evictions), " +
          format_count(totals.cache_bytes_loaded) + " bytes streamed (peak " +
          format_count(totals.peak_trial_bytes_loaded) + "/trial) across " +
          format_count(totals.horizons) + " horizons / " +
          format_count(totals.bucket_passes) + " bucket passes.";
  return note;
}

ExperimentResult run_mwg_speedup_blocked(const ExperimentParams& params,
                                         ThreadPool& pool) {
  const BlockedGraph graph = open_blocked("mwg-speedup", params);
  const std::uint64_t budget = resolve_mem_budget(params);
  BlockWalkEngine engine(graph, budget);

  const ExperimentPreset& preset = preset_for("mwg-speedup");
  const std::uint64_t seed = params.seed;
  const std::uint64_t trials = resolve_trials(preset, params);
  const std::uint64_t k_limit =
      checked_walk_count("mwg-speedup", resolve_kmax(preset, params));
  const Vertex n = graph.num_vertices();
  const Vertex start = checked_start("mwg-speedup", params, n);
  const Vertex target = clamp_cover_target(resolve_target(preset, params), n);
  const std::vector<unsigned> ks = geometric_ks(k_limit);

  McOptions mc = preset_mc(trials);
  mc.seed = mix64(seed ^ 0x3396a1ULL);
  BlockedRunTotals totals;
  const std::vector<SpeedupEstimate> curve =
      estimate_speedup_curve_to_target_blocked(engine, start, target, ks, mc,
                                               lane_cover_options(), &totals);

  ExperimentResult result;
  push_common_params(result, seed, params.full,
                     static_cast<std::uint64_t>(n), trials, pool.size());
  push_param(result, "graph", params.graph);
  push_param(result, "start", static_cast<std::uint64_t>(start));
  push_param(result, "kmax", k_limit);
  push_param(result, "target", static_cast<std::uint64_t>(target));
  push_param(result, "parallelism", std::string("blocked"));
  push_param(result, "mem_budget", budget);
  result.preamble.push_back(blocked_preamble(graph, params.graph, budget));
  result.tables.push_back(speedup_table(params.graph, start, target, n, curve));
  result.notes = speedup_notes();
  result.notes.push_back(blocked_cache_note(totals));
  return result;
}

ExperimentResult run_mwg_starts_blocked(const ExperimentParams& params,
                                        ThreadPool& pool) {
  const BlockedGraph graph = open_blocked("mwg-starts", params);
  const std::uint64_t budget = resolve_mem_budget(params);
  BlockWalkEngine engine(graph, budget);

  const ExperimentPreset& preset = preset_for("mwg-starts");
  const std::uint64_t seed = params.seed;
  const std::uint64_t trials = resolve_trials(preset, params);
  const auto k = static_cast<unsigned>(checked_walk_count(
      "mwg-starts", std::max<std::uint64_t>(resolve_k(preset, params), 1)));
  const Vertex n = graph.num_vertices();
  const Vertex start = checked_start("mwg-starts", params, n);

  // The shared engine forces serial trials (see
  // estimate_cover_to_target_blocked); the raw run_monte_carlo calls
  // below pin the same mode so all three placements reduce identically
  // to the in-core path.
  const CoverOptions cover_run = lane_cover_options();
  McOptions mc = preset_mc(trials);
  mc.parallelism = McParallelism::kLanes;

  BlockedRunTotals totals;
  McOptions same_mc = mc;
  same_mc.seed = mix64(seed ^ 0x3a11ULL);
  const McResult same = estimate_cover_to_target_blocked(
      engine, start, k, n, same_mc, cover_run, &totals);

  const std::span<const std::uint64_t> offsets = graph.offsets();
  McOptions stationary_mc = mc;
  stationary_mc.seed = mix64(seed ^ 0x3a22ULL);
  const McResult stationary = run_monte_carlo(
      [&engine, &totals, offsets, k, cover_run, n](std::uint64_t, Rng& rng) {
        std::vector<Vertex> starts(k);
        for (Vertex& s : starts) {
          s = sample_stationary_vertex_csr(offsets, rng);
        }
        engine.reset(starts);
        engine.reset_stats();
        const CoverSample sample = engine.run_until_visited(n, rng, cover_run);
        totals.absorb(engine);
        return TrialOutcome{static_cast<double>(sample.steps), !sample.covered};
      },
      stationary_mc, nullptr);

  McOptions uniform_mc = mc;
  uniform_mc.seed = mix64(seed ^ 0x3a33ULL);
  const McResult uniform = run_monte_carlo(
      [&engine, &totals, k, cover_run, n](std::uint64_t, Rng& rng) {
        std::vector<Vertex> starts(k);
        for (Vertex& s : starts) s = rng.uniform_below_wide(n);
        engine.reset(starts);
        engine.reset_stats();
        const CoverSample sample = engine.run_until_visited(n, rng, cover_run);
        totals.absorb(engine);
        return TrialOutcome{static_cast<double>(sample.steps), !sample.covered};
      },
      uniform_mc, nullptr);

  ExperimentResult result;
  push_common_params(result, seed, params.full,
                     static_cast<std::uint64_t>(n), trials, pool.size());
  push_param(result, "graph", params.graph);
  push_param(result, "start", static_cast<std::uint64_t>(start));
  push_param(result, "k", static_cast<std::uint64_t>(k));
  push_param(result, "parallelism", std::string("blocked"));
  push_param(result, "mem_budget", budget);
  result.preamble.push_back(blocked_preamble(graph, params.graph, budget));
  result.tables.push_back(
      starts_table(params.graph, k, start, same, stationary, uniform));
  result.notes = starts_notes();
  result.notes.push_back(blocked_cache_note(totals));
  return result;
}

ExperimentResult run_mwg_speedup(const ExperimentParams& params,
                                 ThreadPool& pool) {
  MW_REQUIRE(params.mem_budget.empty() || params.block_walk,
             "--mem-budget only applies with --block-walk");
  if (params.block_walk) return run_mwg_speedup_blocked(params, pool);
  const MappedGraph mapped = open_mapped("mwg-speedup", params);
  return run_mwg_speedup_on_substrate(mapped.substrate(), params.graph,
                                      params, pool, lane_cover_options());
}

ExperimentResult run_mwg_starts(const ExperimentParams& params,
                                ThreadPool& pool) {
  MW_REQUIRE(params.mem_budget.empty() || params.block_walk,
             "--mem-budget only applies with --block-walk");
  if (params.block_walk) return run_mwg_starts_blocked(params, pool);
  const MappedGraph mapped = open_mapped("mwg-starts", params);
  return run_mwg_starts_on_substrate(mapped.substrate(), params.graph, params,
                                     pool, lane_cover_options());
}

}  // namespace

ExperimentResult run_mwg_speedup_on_substrate(const CsrSubstrate& substrate,
                                              const std::string& source,
                                              const ExperimentParams& params,
                                              ThreadPool& pool,
                                              const CoverOptions& cover) {
  const ExperimentPreset& preset = preset_for("mwg-speedup");
  const std::uint64_t seed = params.seed;
  const std::uint64_t trials = resolve_trials(preset, params);
  const std::uint64_t k_limit =
      checked_walk_count("mwg-speedup", resolve_kmax(preset, params));
  const Vertex n = substrate.num_vertices();
  const Vertex start = checked_start("mwg-speedup", params, n);
  const Vertex target = clamp_cover_target(resolve_target(preset, params), n);
  const std::vector<unsigned> ks = geometric_ks(k_limit);

  CoverOptions cover_run = cover;
  cover_run.lane_shards = params.lane_shards;
  McOptions mc = preset_mc(trials);
  mc.seed = mix64(seed ^ 0x3396a1ULL);
  const std::vector<SpeedupEstimate> curve = estimate_speedup_curve_to_target(
      substrate, start, target, ks, mc, cover_run, &pool);

  ExperimentResult result;
  push_common_params(result, seed, params.full,
                     static_cast<std::uint64_t>(n), trials, pool.size());
  push_param(result, "graph", source);
  push_param(result, "start", static_cast<std::uint64_t>(start));
  push_param(result, "kmax", k_limit);
  push_param(result, "target", static_cast<std::uint64_t>(target));
  push_parallelism_params(result, cover_run, mc.max_trials, k_limit, pool);
  result.preamble.push_back(substrate_preamble(substrate, source));
  result.tables.push_back(speedup_table(source, start, target, n, curve));
  result.notes = speedup_notes();
  return result;
}

ExperimentResult run_mwg_starts_on_substrate(const CsrSubstrate& substrate,
                                             const std::string& source,
                                             const ExperimentParams& params,
                                             ThreadPool& pool,
                                             const CoverOptions& cover) {
  const ExperimentPreset& preset = preset_for("mwg-starts");
  const std::uint64_t seed = params.seed;
  const std::uint64_t trials = resolve_trials(preset, params);
  const auto k = static_cast<unsigned>(checked_walk_count(
      "mwg-starts", std::max<std::uint64_t>(resolve_k(preset, params), 1)));
  const Vertex n = substrate.num_vertices();
  const Vertex start = checked_start("mwg-starts", params, n);
  // The two raw run_monte_carlo calls below bypass the estimators, so the
  // thread-budget policy is applied here once (lanes = k for all three
  // placements); estimate_k_cover_time re-applies it idempotently.
  CoverOptions cover_run = cover;
  cover_run.lane_shards = params.lane_shards;
  McOptions mc = preset_mc(trials);
  apply_thread_budget(k, &pool, mc, cover_run);

  McOptions same_mc = mc;
  same_mc.seed = mix64(seed ^ 0x3a11ULL);
  const McResult same =
      estimate_k_cover_time(substrate, start, k, same_mc, cover_run, &pool);

  McOptions stationary_mc = mc;
  stationary_mc.seed = mix64(seed ^ 0x3a22ULL);
  const McResult stationary = run_monte_carlo(
      [substrate, k, cover_run](std::uint64_t, Rng& rng) {
        std::vector<Vertex> starts(k);
        for (Vertex& s : starts) {
          s = sample_stationary_vertex_csr(substrate.offsets(), rng);
        }
        const CoverSample sample = sample_cover_to_target(
            substrate, starts, substrate.num_vertices(), rng, cover_run);
        return TrialOutcome{static_cast<double>(sample.steps), !sample.covered};
      },
      stationary_mc, &pool);

  McOptions uniform_mc = mc;
  uniform_mc.seed = mix64(seed ^ 0x3a33ULL);
  const McResult uniform = run_monte_carlo(
      [substrate, k, cover_run, n](std::uint64_t, Rng& rng) {
        std::vector<Vertex> starts(k);
        for (Vertex& s : starts) s = rng.uniform_below_wide(n);
        const CoverSample sample = sample_cover_to_target(
            substrate, starts, substrate.num_vertices(), rng, cover_run);
        return TrialOutcome{static_cast<double>(sample.steps), !sample.covered};
      },
      uniform_mc, &pool);

  ExperimentResult result;
  push_common_params(result, seed, params.full,
                     static_cast<std::uint64_t>(n), trials, pool.size());
  push_param(result, "graph", source);
  push_param(result, "start", static_cast<std::uint64_t>(start));
  push_param(result, "k", static_cast<std::uint64_t>(k));
  push_parallelism_params(result, cover_run, mc.max_trials, k, pool);
  result.preamble.push_back(substrate_preamble(substrate, source));
  result.tables.push_back(
      starts_table(source, k, start, same, stationary, uniform));
  result.notes = starts_notes();
  return result;
}

void register_mwg_experiments(ExperimentRegistry& registry) {
  registry.add({"mwg-speedup",
                "stored .mwg graph via mmap: the paper's S^k curve",
                "Thms 6/8/18 machinery on stored graphs",
                /*default_seed=*/51,
                {ExtraParam::kGraph, ExtraParam::kKmax, ExtraParam::kTarget,
                 ExtraParam::kStart, ExtraParam::kLaneShards,
                 ExtraParam::kBlockWalk, ExtraParam::kMemBudget}},
               run_mwg_speedup);
  registry.add({"mwg-starts",
                "stored .mwg graph via mmap: C^k by start placement",
                "§1.1 / Lemma 19 setting on stored graphs",
                /*default_seed=*/52,
                {ExtraParam::kGraph, ExtraParam::kK, ExtraParam::kStart,
                 ExtraParam::kLaneShards, ExtraParam::kBlockWalk,
                 ExtraParam::kMemBudget}},
               run_mwg_starts);
}

}  // namespace manywalks::cli
