// P1 — google-benchmark suite for the simulation engine itself: batched
// WalkEngine cover trials (steps/second), k-walk round cost, and
// Monte-Carlo thread scaling. These
// numbers justify the experiment harness's feasible scales (steps/second
// on a laptop).
//
// The binary has its own main: before running benchmarks it
//   1. measures strong scaling of one sharded cover run (BENCH_scale.json,
//      schema "manywalks-scale-v1"): the round counts must be identical at
//      every thread count, and with --scale_guard it exits nonzero if the
//      4-thread run is below 1.6x the 1-thread steps/s;
//   2. measures the observability layer's cost (BENCH_obs.json, schema
//      "manywalks-obs-v1"): lane steps/s with a MetricsRegistry installed
//      vs observability off, counting contract checked exactly; with
//      --obs_guard it exits nonzero if metrics-on drops below 97% of
//      metrics-off steps/s on every k of any family.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/families.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "util/thread_pool.hpp"
#include "graph/generators.hpp"
#include "graph/substrate.hpp"
#include "mc/estimators.hpp"
#include "walk/cover.hpp"
#include "walk/engine.hpp"

namespace {

using namespace manywalks;

const Graph& grid_graph() {
  static const Graph g = make_grid_2d(255);
  return g;
}
const Graph& margulis_graph() {
  static const Graph g = make_margulis_expander(255);
  return g;
}

// ---------------------------------------------------------------------------
// Batched WalkEngine, k-token partial-cover trials on the three headline
// instances. items/second == token-steps/second.
// ---------------------------------------------------------------------------
constexpr unsigned kTokens = 16;

/// A 2^13-cycle: cycle cover is Theta(n^2), and 2^16 vertices would leave
/// the benchmark a single multi-second iteration.
const Graph& cover_cycle_graph() {
  static const Graph g = make_cycle(1 << 13);
  return g;
}

void BM_CoverPath(benchmark::State& state, const Graph& g) {
  const std::vector<Vertex> starts(kTokens, 0);
  // 90% coverage keeps per-trial work bounded (the last few vertices
  // dominate full cover times) while still exercising the real workload.
  const auto target =
      static_cast<Vertex>(static_cast<double>(g.num_vertices()) * 0.9);
  Rng rng(7);
  WalkEngine engine(g);
  std::uint64_t token_steps = 0;
  for (auto _ : state) {
    engine.reset(starts);
    const CoverSample sample = engine.run_until_visited(target, rng);
    benchmark::DoNotOptimize(sample.steps);
    token_steps += sample.steps * kTokens;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(token_steps));
}

void BM_EngineCycle(benchmark::State& state) { BM_CoverPath(state, cover_cycle_graph()); }
void BM_EngineGrid2d(benchmark::State& state) { BM_CoverPath(state, grid_graph()); }
void BM_EngineExpander(benchmark::State& state) { BM_CoverPath(state, margulis_graph()); }

BENCHMARK(BM_EngineCycle);
BENCHMARK(BM_EngineGrid2d);
BENCHMARK(BM_EngineExpander);

/// Cost of one k-walk round (k token steps + visit tracking) vs k.
void BM_KWalkRound(benchmark::State& state) {
  const Graph& g = grid_graph();
  const auto k = static_cast<unsigned>(state.range(0));
  Rng rng(2);
  CoverOptions options;
  options.step_cap = 64;  // fixed number of rounds per sample
  for (auto _ : state) {
    const auto sample = sample_k_cover_time(g, 0, k, rng, options);
    benchmark::DoNotOptimize(sample.steps);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64 * k);
}
BENCHMARK(BM_KWalkRound)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

/// Full cover-time samples on mid-size instances.
void BM_CoverSampleGrid(benchmark::State& state) {
  const Graph g = make_grid_2d(63);
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample_cover_time(g, 0, rng).steps);
  }
}
BENCHMARK(BM_CoverSampleGrid);

void BM_CoverSampleCycle(benchmark::State& state) {
  const Graph g = make_cycle(1024);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample_cover_time(g, 0, rng).steps);
  }
}
BENCHMARK(BM_CoverSampleCycle);

/// Monte-Carlo harness thread scaling: same trial budget, varying workers.
void BM_McThreadScaling(benchmark::State& state) {
  const Graph g = make_grid_2d(31);
  const auto threads = static_cast<unsigned>(state.range(0));
  McOptions mc;
  mc.min_trials = 64;
  mc.max_trials = 64;
  mc.threads = threads;
  for (auto _ : state) {
    const auto result = estimate_cover_time(g, 0, mc);
    benchmark::DoNotOptimize(result.ci.mean);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_McThreadScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

/// One timed run_for_steps burst; returns seconds.
template <class Engine>
double timed_rounds(Engine& engine, std::span<const Vertex> starts,
                    std::uint64_t rounds, std::uint64_t seed) {
  using clock = std::chrono::steady_clock;
  engine.reset(starts);
  Rng rng(seed);
  const auto t0 = clock::now();
  engine.run_for_steps(rounds, rng);
  const auto t1 = clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

// ---------------------------------------------------------------------------
// BENCH_scale: strong scaling of ONE sharded cover run (determinism
// contract v3). The acceptance instance is the 10^6-vertex 8-regular
// expander at k = 2^12: threads=1 runs the serial lane path, threads>1 a
// team of `threads` workers (the caller plus a ThreadPool(threads-1)),
// each walking one contiguous lane block into its own bitmap. The round
// counts MUST be identical across thread counts (thread-invariance is part
// of the contract, checked here on every run, guard or not); the guard
// additionally gates the 4-thread/1-thread steps/s ratio.
// ---------------------------------------------------------------------------

struct ScaleRow {
  unsigned threads = 0;
  unsigned lane_shards = 0;
  std::uint64_t rounds = 0;  // summed over trials; thread-invariant
  double steps_per_s = 0.0;  // token-steps per second
};

std::vector<ScaleRow> run_scale() {
  const Graph g = make_margulis_expander(1024);  // n = 2^20
  constexpr unsigned kK = 1u << 12;
  const auto target =
      static_cast<Vertex>(static_cast<double>(g.num_vertices()) * 0.9);
  const std::vector<Vertex> starts(kK, 0);
  constexpr std::uint64_t kSeed = 0x5ca1eULL;
  constexpr std::uint64_t kTrials = 6;
  WalkEngine engine(g);

  std::printf("sharded strong scaling (expander n=%u, k=%u, 90%% coverage, "
              "%llu trials):\n",
              g.num_vertices(), kK,
              static_cast<unsigned long long>(kTrials));
  std::printf("%8s %12s %10s %15s %8s\n", "threads", "lane-shards", "rounds",
              "steps/s", "vs 1t");
  std::vector<ScaleRow> rows;
  using clock = std::chrono::steady_clock;
  for (const unsigned threads : {1u, 2u, 3u, 4u}) {
    ScaleRow row;
    row.threads = threads;
    std::unique_ptr<ThreadPool> pool;
    CoverOptions opt;
    if (threads > 1) {
      pool = std::make_unique<ThreadPool>(threads - 1);
      row.lane_shards = threads;
      opt.lane_shards = row.lane_shards;
      opt.shard_pool = pool.get();
    }
    {
      // Warm-up trial pages in the tracker scratch and spins up the pool.
      Rng warm = make_trial_rng(kSeed, 1000);
      engine.reset(starts);
      engine.run_until_visited(target, warm, opt);
    }
    double secs = 0.0;
    for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
      Rng rng = make_trial_rng(kSeed, trial);
      engine.reset(starts);
      const auto t0 = clock::now();
      const CoverSample sample = engine.run_until_visited(target, rng, opt);
      const auto t1 = clock::now();
      secs += std::chrono::duration<double>(t1 - t0).count();
      row.rounds += sample.steps;
    }
    row.steps_per_s = static_cast<double>(row.rounds) * kK / secs;
    std::printf("%8u %12u %10llu %14.1fM %7.2fx\n", row.threads,
                row.lane_shards, static_cast<unsigned long long>(row.rounds),
                row.steps_per_s / 1e6,
                rows.empty() ? 1.0 : row.steps_per_s / rows[0].steps_per_s);
    rows.push_back(row);
  }
  std::printf("\n");
  return rows;
}

void write_scale_json(const std::vector<ScaleRow>& rows,
                      const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"schema\": \"manywalks-scale-v1\",\n"
      << "  \"metric\": \"token-steps per second, one sharded cover run, "
         "expander n=2^20, k=4096, 90% coverage\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScaleRow& r = rows[i];
    out << "    {\"threads\": " << r.threads
        << ", \"lane_shards\": " << r.lane_shards
        << ", \"rounds\": " << r.rounds
        << ", \"steps_per_s\": " << static_cast<std::uint64_t>(r.steps_per_s)
        << ", \"speedup_vs_1t\": "
        << (rows[0].steps_per_s > 0.0 ? r.steps_per_s / rows[0].steps_per_s
                                      : 0.0)
        << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s (%zu rows)\n\n", path.c_str(), rows.size());
}

/// Thread-invariance is unconditional (a divergence is a correctness bug,
/// not a perf regression); the >= 1.6x floor on the 4-thread ratio is the
/// CI strong-scaling gate.
bool scale_results_pass(const std::vector<ScaleRow>& rows, bool guard) {
  bool ok = true;
  for (const ScaleRow& row : rows) {
    if (row.rounds != rows[0].rounds) {
      std::fprintf(stderr,
                   "scale FAIL: rounds not thread-invariant (%llu rounds at "
                   "%u threads vs %llu at 1) — determinism contract v3 broken\n",
                   static_cast<unsigned long long>(row.rounds), row.threads,
                   static_cast<unsigned long long>(rows[0].rounds));
      ok = false;
    }
  }
  if (guard) {
    const double ratio = rows.back().steps_per_s / rows[0].steps_per_s;
    const bool pass = ratio >= 1.6;
    std::printf("scale_guard %u threads vs 1: %.2fx (floor 1.6x) %s\n\n",
                rows.back().threads, ratio, pass ? "OK" : "FAIL");
    ok = ok && pass;
  }
  return ok;
}

// ---------------------------------------------------------------------------
// BENCH_obs: cost of the observability layer. run_for_steps bursts alternate between observer OFF (the null-pointer
// fast path) and observer ON with a live MetricsRegistry — the exact
// configuration `--metrics` installs. The counting contract is checked
// unconditionally (the registry must reproduce the burst's step count
// exactly); --obs_guard additionally gates the on/off steps/s ratio at
// >= 0.97, the "metrics cost <= 3% steps/s" promise in docs/ARCHITECTURE.md.
// ---------------------------------------------------------------------------

struct ObsRow {
  std::string family;
  std::string substrate;  // "csr" or "implicit"
  std::uint64_t n = 0;
  unsigned k = 0;
  double off_steps_per_s = 0.0;
  double on_steps_per_s = 0.0;
  double ratio = 0.0;  // on / off
};

/// Alternating off/on bursts, same per-rep RNG seeds on both sides so the
/// two measurements do byte-identical walk work. The observer is installed
/// only around the on-side bursts (install/uninstall happens on this
/// thread with no workers running — the documented discipline).
template <class Engine>
ObsRow measure_obs_overhead(const char* family, const char* substrate,
                            std::uint64_t n, Engine& engine, unsigned k,
                            std::uint64_t steps_budget,
                            obs::MetricsRegistry& registry,
                            std::uint64_t& expected_on_steps) {
  const std::vector<Vertex> starts(k, 0);
  const std::uint64_t rounds = std::max<std::uint64_t>(steps_budget / k, 64);
  const std::uint64_t warm_rounds = std::max<std::uint64_t>(rounds / 8, 1);
  constexpr int kReps = 4;
  obs::RunObserver on{&registry, nullptr, nullptr};
  // Warm both sides (pages scratch, seeds lanes, registers this thread's
  // counter scratch) outside the timing.
  timed_rounds(engine, starts, warm_rounds, 1);
  {
    obs::ScopedObserver scoped(&on);
    timed_rounds(engine, starts, warm_rounds, 1);
  }
  expected_on_steps += warm_rounds * k;
  double off_s = 0.0;
  double on_s = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::uint64_t seed = 500 + static_cast<std::uint64_t>(rep);
    off_s += timed_rounds(engine, starts, rounds, seed);
    obs::ScopedObserver scoped(&on);
    on_s += timed_rounds(engine, starts, rounds, seed);
  }
  expected_on_steps += rounds * k * kReps;
  const double steps =
      static_cast<double>(rounds) * k * static_cast<double>(kReps);
  ObsRow row;
  row.family = family;
  row.substrate = substrate;
  row.n = n;
  row.k = k;
  row.off_steps_per_s = steps / off_s;
  row.on_steps_per_s = steps / on_s;
  row.ratio = row.on_steps_per_s / row.off_steps_per_s;
  return row;
}

std::vector<ObsRow> run_obs(obs::MetricsRegistry& registry,
                            std::uint64_t& expected_on_steps) {
  std::vector<ObsRow> rows;
  const unsigned ks[] = {8, 64, 256};
  std::printf("observability overhead, lane token-steps/s (metrics registry "
              "installed vs off):\n");
  std::printf("%-19s %4s %15s %15s %7s\n", "family", "k", "obs off", "obs on",
              "ratio");
  auto push = [&rows](ObsRow row) {
    std::printf("%-19s %4u %14.1fM %14.1fM %6.2fx\n", row.family.c_str(),
                row.k, row.off_steps_per_s / 1e6, row.on_steps_per_s / 1e6,
                row.ratio);
    rows.push_back(std::move(row));
  };
  {
    const Graph g = make_margulis_expander(1024);  // n = 2^20
    WalkEngine engine(g);
    for (unsigned k : ks) {
      push(measure_obs_overhead("csr-expander", "csr", g.num_vertices(),
                                engine, k, 3'000'000, registry,
                                expected_on_steps));
    }
  }
  {
    WalkEngineT<CycleSubstrate> engine{CycleSubstrate(1u << 20)};
    for (unsigned k : ks) {
      push(measure_obs_overhead("implicit-cycle", "implicit", 1u << 20,
                                engine, k, 12'000'000, registry,
                                expected_on_steps));
    }
  }
  std::printf("\n");
  return rows;
}

void write_obs_json(const std::vector<ObsRow>& rows, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n  \"schema\": \"manywalks-obs-v1\",\n"
      << "  \"metric\": \"lane token-steps per second, run_for_steps, "
         "metrics registry installed vs observability off\",\n"
      << "  \"floor\": 0.97,\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ObsRow& r = rows[i];
    out << "    {\"family\": \"" << r.family << "\", \"substrate\": \""
        << r.substrate << "\", \"n\": " << r.n << ", \"k\": " << r.k
        << ", \"off_steps_per_s\": "
        << static_cast<std::uint64_t>(r.off_steps_per_s)
        << ", \"on_steps_per_s\": "
        << static_cast<std::uint64_t>(r.on_steps_per_s) << ", \"ratio\": "
        << r.ratio << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  std::printf("wrote %s (%zu rows)\n\n", path.c_str(), rows.size());
}

/// The counting contract is unconditional: every on-side burst ran with
/// the registry installed, so after a drain the registry's walk.steps must
/// equal the steps the bursts actually executed — a miscount is a
/// correctness bug in the scratch/drain pipeline, not a perf matter. The
/// guard gates the BEST k ratio per family (best-of-k, not every-k: load
/// spikes on a noisy shared runner dent single rows, a real regression
/// dents all).
bool obs_results_pass(const std::vector<ObsRow>& rows,
                      obs::MetricsRegistry& registry,
                      std::uint64_t expected_on_steps, bool guard) {
  bool ok = true;
  obs::drain_thread_counters(registry);
  const std::uint64_t counted = registry.value(obs::Metric::kSteps);
  if (counted != expected_on_steps) {
    std::fprintf(stderr,
                 "obs FAIL: registry counted %llu steps, bursts executed "
                 "%llu — scratch/drain pipeline miscounts\n",
                 static_cast<unsigned long long>(counted),
                 static_cast<unsigned long long>(expected_on_steps));
    ok = false;
  } else {
    std::printf("verified: metrics registry reproduced all %llu observed "
                "token-steps exactly\n",
                static_cast<unsigned long long>(counted));
  }
  if (guard) {
    std::vector<std::string> families;
    for (const ObsRow& row : rows) {
      if (std::find(families.begin(), families.end(), row.family) ==
          families.end()) {
        families.push_back(row.family);
      }
    }
    for (const std::string& family : families) {
      double best = 0.0;
      for (const ObsRow& row : rows) {
        if (row.family == family) best = std::max(best, row.ratio);
      }
      const bool pass = best >= 0.97;
      std::printf("obs_guard %-19s best ratio %.3fx (floor 0.970x) %s\n",
                  family.c_str(), best, pass ? "OK" : "FAIL");
      ok = ok && pass;
    }
  }
  std::printf("\n");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our flags before google-benchmark sees the command line.
  std::string scale_out = "BENCH_scale.json";
  std::string obs_out = "BENCH_obs.json";
  bool scale_guard = false;
  bool obs_guard = false;
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--scale_out=", 12) == 0) {
      scale_out = arg + 12;
    } else if (std::strncmp(arg, "--obs_out=", 10) == 0) {
      obs_out = arg + 10;
    } else if (std::strcmp(arg, "--scale_guard") == 0) {
      scale_guard = true;
    } else if (std::strcmp(arg, "--obs_guard") == 0) {
      obs_guard = true;
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  argc = out_argc;

  const std::vector<ScaleRow> scale = run_scale();
  write_scale_json(scale, scale_out);
  if (!scale_results_pass(scale, scale_guard)) return EXIT_FAILURE;
  obs::MetricsRegistry obs_registry;
  std::uint64_t expected_on_steps = 0;
  const std::vector<ObsRow> obs_rows = run_obs(obs_registry, expected_on_steps);
  write_obs_json(obs_rows, obs_out);
  if (!obs_results_pass(obs_rows, obs_registry, expected_on_steps, obs_guard)) {
    return EXIT_FAILURE;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return EXIT_FAILURE;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return EXIT_SUCCESS;
}
