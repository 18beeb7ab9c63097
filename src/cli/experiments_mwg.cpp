// Registrations for the stored-graph experiments: `--graph=FILE.mwg`
// versions of the paper's speed-up and start-placement measurements. This
// is how the k-walk results get measured on real-world graphs (SNAP dumps
// via `manywalks graph convert`) instead of only the synthetic families.
//
// Each experiment has one body over an engine source (mc/estimators.hpp);
// `--block-walk` only picks the source: the whole file memory-mapped for
// the in-core lane engine, or the out-of-core block engine under an
// explicit `--mem-budget` (mwg v2 only; only metadata stays resident).
// The tables are bit-identical either way.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "cli/experiments_common.hpp"
#include "cli/experiments_mwg.hpp"
#include "mc/estimators.hpp"
#include "storage/block_store.hpp"
#include "storage/mapped_graph.hpp"
#include "util/options.hpp"
#include "walk/block_engine.hpp"

namespace manywalks::cli {

namespace {

Vertex checked_start(const char* name, const ExperimentParams& params,
                     Vertex n) {
  MW_REQUIRE(params.start < n, name << ": --start " << params.start
                                    << " out of range (n=" << n << ")");
  return static_cast<Vertex>(params.start);
}

// --- table/notes builders (both engine sources emit the same rows, which
// is how the v4 bit-identity contract stays visible in the output) -----

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

// --- per-source echo: the in-core run reports its thread-budget decision;
// the out-of-core run is serial and reports its budget and cache traffic.

constexpr std::uint64_t kDefaultMemBudget = std::uint64_t{256} << 20;

std::string blocked_cache_note(const BlockedRunTotals& totals) {
  // Counters reset per trial (see OutOfCore::walk), so these are per-trial
  // aggregates: totals are sums of independent trial readings and the peak
  // is a true heaviest-trial figure.
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

std::span<const std::uint64_t> offsets_of(const InCore<CsrSubstrate>& engines) {
  return engines.substrate.offsets();
}
std::span<const std::uint64_t> offsets_of(const OutOfCore& engines) {
  return engines.engine.graph().offsets();
}

/// Finishes `result` (after its tables and notes) with the source's echo.
/// `lanes` is the headline estimate's k, as push_parallelism_params takes.
void echo_source(ExperimentResult& result, const InCore<CsrSubstrate>& engines,
                 const std::string& source, const CoverOptions& cover,
                 std::size_t lanes) {
  push_parallelism_params(result, cover, lanes);
  result.preamble.push_back(
      "stored graph " + source + ": n = " +
      format_count(engines.num_vertices()) + ", arcs = " +
      format_count(engines.substrate.offsets().back()) +
      " — adjacency memory-mapped read-only; the engine binds the mapped "
      "arrays through the same CsrSubstrate as an in-core graph, so the "
      "streams are bit-identical.");
}
void echo_source(ExperimentResult& result, const OutOfCore& engines,
                 const std::string& source, const CoverOptions&,
                 std::size_t) {
  const BlockedGraph& graph = engines.engine.graph();
  const std::uint64_t budget = engines.engine.mem_budget();
  push_param(result, "parallelism", std::string("blocked"));
  push_param(result, "mem_budget", budget);
  result.preamble.push_back(
      "stored graph " + source + ": n = " +
      format_count(graph.num_vertices()) + ", arcs = " +
      format_count(graph.num_arcs()) + " — mwg v2, " +
      format_count(graph.num_blocks()) + " blocks of 2^" +
      std::to_string(graph.block_bits()) +
      " vertices; block-scheduled out-of-core engine with a " +
      format_count(budget) +
      "-byte resident-extent budget (only graph metadata stays mapped). "
      "Results are bit-identical to the in-core run at any budget "
      "(determinism contract v4).");
  if (engines.totals != nullptr) {
    result.notes.push_back(blocked_cache_note(*engines.totals));
  }
}

/// Opens --graph for the engine source --block-walk picks and hands it to
/// `body`: the whole file mapped in core (targets range-checked once, so a
/// corrupt store fails cleanly instead of walking off the tracker), or
/// the block engine under --mem-budget (each extent checked on its first
/// load).
template <class Body>
ExperimentResult with_engine_source(const char* name,
                                    const ExperimentParams& params,
                                    Body&& body) {
  MW_REQUIRE(!params.graph.empty(),
             name << " needs --graph=FILE.mwg (create one with `manywalks "
                     "graph gen` or `manywalks graph convert`)");
  MW_REQUIRE(params.mem_budget.empty() || params.block_walk,
             "--mem-budget only applies with --block-walk");
  MW_REQUIRE(params.lane_shards == 0 || !params.block_walk,
             "--lane-shards does not apply with --block-walk (the block "
             "engine walks each trial on one thread)");
  if (!params.block_walk) {
    const MappedGraph mapped(params.graph, MappedGraph::Validate::kTargets);
    return body(InCore(mapped.substrate()));
  }
  const BlockedGraph graph(params.graph);
  BlockWalkEngine engine(graph, params.mem_budget.empty()
                                    ? kDefaultMemBudget
                                    : parse_byte_size(params.mem_budget));
  BlockedRunTotals totals;
  return body(OutOfCore{engine, &totals});
}

ExperimentResult run_mwg_speedup(const ExperimentParams& params,
                                 ThreadPool& pool) {
  return with_engine_source("mwg-speedup", params, [&](const auto& engines) {
    return run_mwg_speedup_on(engines, params.graph, params, pool);
  });
}

ExperimentResult run_mwg_starts(const ExperimentParams& params,
                                ThreadPool& pool) {
  return with_engine_source("mwg-starts", params, [&](const auto& engines) {
    return run_mwg_starts_on(engines, params.graph, params, pool);
  });
}

}  // namespace

template <class Engines>
ExperimentResult run_mwg_speedup_on(const Engines& engines,
                                    const std::string& source,
                                    const ExperimentParams& params,
                                    ThreadPool& pool) {
  const ExperimentPreset& preset = preset_for("mwg-speedup");
  const std::uint64_t seed = params.seed;
  const std::uint64_t trials = resolve_trials(preset, params);
  const std::uint64_t k_limit =
      checked_walk_count("mwg-speedup", "--kmax", resolve_kmax(preset, params));
  const Vertex n = engines.num_vertices();
  const Vertex start = checked_start("mwg-speedup", params, n);
  const Vertex target = clamp_cover_target(resolve_target(preset, params), n);
  const std::vector<unsigned> ks = geometric_ks(k_limit);

  CoverOptions cover = lane_cover_options();
  cover.lane_shards = params.lane_shards;
  McOptions mc = preset_mc(trials);
  mc.seed = mix64(seed ^ 0x3396a1ULL);
  const std::vector<SpeedupEstimate> curve = estimate_speedup_curve_to_target(
      engines, start, target, ks, mc, cover, &pool);

  ExperimentResult result;
  push_common_params(result, seed, params.full,
                     static_cast<std::uint64_t>(n), trials, pool.size());
  push_param(result, "graph", source);
  push_param(result, "start", static_cast<std::uint64_t>(start));
  push_param(result, "kmax", k_limit);
  push_param(result, "target", static_cast<std::uint64_t>(target));
  result.tables.push_back(speedup_table(source, start, target, n, curve));
  result.notes = speedup_notes();
  echo_source(result, engines, source, cover, k_limit);
  return result;
}

template <class Engines>
ExperimentResult run_mwg_starts_on(const Engines& engines,
                                   const std::string& source,
                                   const ExperimentParams& params,
                                   ThreadPool& pool) {
  const ExperimentPreset& preset = preset_for("mwg-starts");
  const std::uint64_t seed = params.seed;
  const std::uint64_t trials = resolve_trials(preset, params);
  const auto k = static_cast<unsigned>(checked_walk_count(
      "mwg-starts", "--k",
      std::max<std::uint64_t>(resolve_k(preset, params), 1)));
  const Vertex n = engines.num_vertices();
  const Vertex start = checked_start("mwg-starts", params, n);

  CoverOptions cover = lane_cover_options();
  cover.lane_shards = params.lane_shards;
  const McOptions mc = preset_mc(trials);
  const auto placement = [&](std::uint64_t salt, const auto& draw_starts) {
    McOptions placed = mc;
    placed.seed = mix64(seed ^ salt);
    return estimate_cover(engines, k, draw_starts, n, placed, cover, &pool);
  };
  const McResult same = placement(0x3a11ULL, same_vertex_starts(start));
  const McResult stationary =
      placement(0x3a22ULL, stationary_starts(offsets_of(engines)));
  const McResult uniform = placement(0x3a33ULL, uniform_starts(n));

  ExperimentResult result;
  push_common_params(result, seed, params.full,
                     static_cast<std::uint64_t>(n), trials, pool.size());
  push_param(result, "graph", source);
  push_param(result, "start", static_cast<std::uint64_t>(start));
  push_param(result, "k", static_cast<std::uint64_t>(k));
  result.tables.push_back(
      starts_table(source, k, start, same, stationary, uniform));
  result.notes = starts_notes();
  echo_source(result, engines, source, cover, k);
  return result;
}

template ExperimentResult run_mwg_speedup_on(const InCore<CsrSubstrate>&,
                                             const std::string&,
                                             const ExperimentParams&,
                                             ThreadPool&);
template ExperimentResult run_mwg_speedup_on(const OutOfCore&,
                                             const std::string&,
                                             const ExperimentParams&,
                                             ThreadPool&);
template ExperimentResult run_mwg_starts_on(const InCore<CsrSubstrate>&,
                                            const std::string&,
                                            const ExperimentParams&,
                                            ThreadPool&);
template ExperimentResult run_mwg_starts_on(const OutOfCore&,
                                            const std::string&,
                                            const ExperimentParams&,
                                            ThreadPool&);

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
