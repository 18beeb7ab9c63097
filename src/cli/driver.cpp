#include "cli/driver.hpp"

#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "cli/graph_tool.hpp"
#include "cli/presets.hpp"
#include "cli/registry.hpp"
#include "cli/sinks.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace manywalks::cli {

namespace {

/// The most pool workers --threads may ask for: far past any core count
/// the experiments can use, and small enough that a typo cannot start
/// thousands of threads.
constexpr unsigned kMaxThreads = 1024;

bool has_extra(const ExperimentInfo& info, ExtraParam extra) {
  return std::find(info.extras.begin(), info.extras.end(), extra) !=
         info.extras.end();
}

/// Fills ExperimentResult::manifest for `--metrics`: timings, resolved
/// parallelism, then the full metric snapshot (stable enum-then-
/// registration order, zeros included, so two runs produce comparable
/// key sets).
void fill_manifest(ExperimentResult& result,
                   const obs::MetricsRegistry& registry, double wall_seconds,
                   double cpu_seconds, unsigned lane_shards,
                   std::size_t pool_threads) {
  auto& manifest = result.manifest;
  manifest.emplace_back("wall_seconds", RealCell{wall_seconds, 4});
  manifest.emplace_back("cpu_seconds", RealCell{cpu_seconds, 4});
  manifest.emplace_back("threads", static_cast<std::uint64_t>(pool_threads));
  manifest.emplace_back("lane_shards", static_cast<std::uint64_t>(lane_shards));
  for (const obs::MetricSnapshot& snap : registry.snapshot()) {
    if (snap.kind == obs::MetricKind::kHistogram) {
      manifest.emplace_back("metrics." + snap.name + ".count", snap.value);
      std::size_t last = snap.buckets.size();
      while (last > 0 && snap.buckets[last - 1] == 0) --last;
      std::string buckets;
      for (std::size_t i = 0; i < last; ++i) {
        if (i != 0) buckets += ',';
        buckets += std::to_string(snap.buckets[i]);
      }
      manifest.emplace_back("metrics." + snap.name + ".log2_buckets",
                            std::move(buckets));
    } else {
      manifest.emplace_back("metrics." + snap.name, snap.value);
    }
  }
}

void print_usage(std::ostream& os) {
  os << "manywalks — unified experiment CLI for the SPAA 2008 reproduction\n"
        "\n"
        "Usage:\n"
        "  manywalks list [--plain]     all registered experiments and the\n"
        "                               paper claims they reproduce\n"
        "                               (--plain: names only, for scripts)\n"
        "  manywalks run <exp> [opts]   run one experiment; common options:\n"
        "                               --full --n=<n> --trials=<t>\n"
        "                               --seed=<s> --threads=<w>\n"
        "                               --format=text|json|csv --out=<dir>\n"
        "  manywalks table1 [opts]      shorthand for `run table1_summary`\n"
        "  manywalks graph <cmd>        on-disk graph tooling: gen/convert\n"
        "                               edge lists to .mwg binary CSR files\n"
        "                               and inspect them (`graph help`);\n"
        "                               run them via `run mwg-speedup\n"
        "                               --graph=FILE.mwg`\n"
        "  manywalks help               this message\n"
        "\n"
        "`manywalks run <exp> --help` lists the experiment's own options.\n"
        "See docs/REPRODUCING.md for the claim-by-claim reproduction guide.\n";
}

int list_experiments(int argc, char** argv) {
  bool plain = false;
  ArgParser parser("manywalks list", "list the registered experiments");
  parser.add_flag("plain", &plain, "print bare names only (for scripts)");
  if (!parser.parse(argc, argv)) return 1;

  const auto experiments = default_registry().list();
  if (plain) {
    for (const Experiment* experiment : experiments) {
      std::cout << experiment->info.name << '\n';
    }
    return 0;
  }
  TextTable table("Registered experiments (run with `manywalks run <name>`)");
  table.add_column("name", TextTable::Align::kLeft)
      .add_column("paper claim", TextTable::Align::kLeft)
      .add_column("summary", TextTable::Align::kLeft);
  for (const Experiment* experiment : experiments) {
    table.begin_row();
    table.cell(experiment->info.name);
    table.cell(experiment->info.claim);
    table.cell(experiment->info.summary);
  }
  std::cout << table;
  return 0;
}

}  // namespace

int run_experiment_main(std::string_view name, int argc, char** argv) {
  const Experiment* experiment = default_registry().find(name);
  if (experiment == nullptr) {
    std::cerr << "manywalks: unknown experiment '" << name
              << "' (see `manywalks list`)\n";
    return 2;
  }
  const ExperimentInfo& info = experiment->info;

  ExperimentParams params;
  // The registration's default seed is the parser default, so --help shows
  // the real value and an explicit --seed=0 is honored verbatim.
  params.seed = info.default_seed;
  std::string format_text = "text";
  SinkOptions sink;
  bool progress_flag = false;
  std::string progress_secs = "2";
  std::string trace_out;
  bool metrics_flag = false;
  ArgParser parser(info.name, info.summary + " [" + info.claim + "]");
  parser.add_flag("full", &params.full, "paper-scale presets")
      .add_option("n", &params.n, "target graph size (0 = preset)")
      .add_option("trials", &params.trials, "Monte-Carlo trials (0 = preset)")
      .add_option("seed", &params.seed, "master seed")
      .add_option("threads", &params.threads,
                  "pool workers, at most " + std::to_string(kMaxThreads) +
                      "; the calling thread also runs trials (0 = hardware)")
      .add_option("format", &format_text, "output format: text, json, csv")
      .add_option("out", &sink.out_dir,
                  "directory for json/csv files (default: stdout)")
      .add_optional_value_flag(
          "progress", &progress_flag, &progress_secs,
          "stderr heartbeat (trials, rounds, steps/s, cache hit-rate, ETA); "
          "--progress=SECS sets the interval in seconds")
      .add_option("trace-out", &trace_out,
                  "write a Chrome trace-event JSON file of the run "
                  "(view in Perfetto / chrome://tracing)")
      .add_flag("metrics", &metrics_flag,
                "append a run manifest (wall/CPU time, resolved "
                "parallelism, metric snapshot) to the output");
  if (has_extra(info, ExtraParam::kK)) {
    parser.add_option("k", &params.k, "number of walks (0 = preset)");
  }
  if (has_extra(info, ExtraParam::kKmax)) {
    parser.add_option("kmax", &params.kmax,
                      "largest k in the sweep (0 = preset)");
  }
  if (has_extra(info, ExtraParam::kCk)) {
    parser.add_option("ck", &params.ck, "k = ck * ln n (0 = preset)");
  }
  if (has_extra(info, ExtraParam::kTarget)) {
    parser.add_option("target", &params.target,
                      "distinct-vertex coverage target (0 = preset, "
                      "clamped to n)");
  }
  if (has_extra(info, ExtraParam::kStart)) {
    parser.add_option("start", &params.start, "start vertex");
  }
  if (has_extra(info, ExtraParam::kGraph)) {
    parser.add_option("graph", &params.graph,
                      "stored .mwg graph file (see `manywalks graph`)");
  }
  if (has_extra(info, ExtraParam::kLaneShards)) {
    parser.add_option("lane-shards", &params.lane_shards,
                      "shard each cover trial's lanes over up to this many "
                      "workers (0 = trial-parallel; any value yields "
                      "identical results)");
  }
  if (has_extra(info, ExtraParam::kBlockWalk)) {
    parser.add_flag("block-walk", &params.block_walk,
                    "out-of-core block-scheduled engine (needs an mwg v2 "
                    "--graph; results identical to the in-core run)");
  }
  if (has_extra(info, ExtraParam::kMemBudget)) {
    parser.add_option("mem-budget", &params.mem_budget,
                      "resident-extent budget for --block-walk, e.g. 64M "
                      "(default 256M; any budget yields identical results)");
  }
  if (!parser.parse(argc, argv)) return 1;
  if (!parse_output_format(format_text, &sink.format)) {
    std::cerr << info.name << ": unknown --format '" << format_text
              << "' (expected text, json, or csv)\n";
    return 1;
  }

  double progress_interval = 0.0;
  if (progress_flag) {
    char* end = nullptr;
    progress_interval = std::strtod(progress_secs.c_str(), &end);
    if (end == progress_secs.c_str() || *end != '\0' ||
        !(progress_interval >= 0.0)) {
      std::cerr << info.name << ": bad --progress interval '" << progress_secs
                << "' (want seconds, e.g. --progress=5)\n";
      return 1;
    }
  }

  if (params.threads > kMaxThreads) {
    std::cerr << info.name << ": --threads " << params.threads
              << " exceeds the limit of " << kMaxThreads << " workers\n";
    return 1;
  }
  // THE place "--threads 0 = hardware" is resolved: runners and sinks
  // downstream always see the real worker count, never the 0 sentinel.
  if (params.threads == 0) params.threads = default_thread_count();

  // Observability is strictly additive: with none of --progress /
  // --trace-out / --metrics given, no observer is installed and every
  // engine sees the same null pointer it always has.
  const bool observe = progress_flag || metrics_flag || !trace_out.empty();
  obs::MetricsRegistry registry;
  std::unique_ptr<obs::TraceWriter> trace;
  if (!trace_out.empty()) trace = std::make_unique<obs::TraceWriter>(trace_out);
  std::unique_ptr<obs::ProgressReporter> progress;
  if (progress_flag) {
    progress = std::make_unique<obs::ProgressReporter>(progress_interval,
                                                       &registry);
  }
  obs::RunObserver run_observer{&registry, trace.get(), progress.get()};

  Stopwatch watch;
  const double cpu_start = obs::process_cpu_seconds();
  ExperimentResult result;
  try {
    ThreadPool pool(params.threads);
    {
      std::optional<obs::ScopedObserver> scoped;
      if (observe) scoped.emplace(&run_observer);
      obs::TraceSpan span(trace.get(), "experiment", "cli");
      span.set_args("\"name\":\"" + info.name + "\"");
      result = experiment->run(params, pool);
    }
    result.elapsed_seconds = watch.seconds();
    if (observe) {
      // run() has returned and the observer is uninstalled: the pool is
      // idle, so this drain is at a quiesced point and catches counters
      // flushed after the last in-run drain (e.g. a final sharded cover).
      obs::drain_thread_counters(registry);
    }
    if (progress != nullptr) progress->finish();
    if (metrics_flag) {
      fill_manifest(result, registry, result.elapsed_seconds,
                    obs::process_cpu_seconds() - cpu_start, params.lane_shards,
                    pool.size());
    }
    emit_result(result, sink, std::cout);
    if (trace != nullptr) {
      if (trace->write()) {
        std::cerr << "wrote trace " << trace->path() << " ("
                  << trace->event_count() << " events";
        if (trace->dropped() > 0) {
          std::cerr << ", " << trace->dropped() << " dropped at the "
                    << "buffer cap";
        }
        std::cerr << ")\n";
      } else {
        std::cerr << info.name << ": cannot write --trace-out file '"
                  << trace->path() << "'\n";
        return 1;
      }
    }
  } catch (const std::exception& error) {
    std::cerr << info.name << ": " << error.what() << '\n';
    return 1;
  }
  return result.has_verdict && !result.passed ? 1 : 0;
}

int manywalks_main(int argc, char** argv) {
  if (argc < 2) {
    print_usage(std::cerr);
    return 1;
  }
  const std::string_view command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    print_usage(std::cout);
    return 0;
  }
  if (command == "list") {
    return list_experiments(argc - 1, argv + 1);
  }
  if (command == "table1") {
    return run_experiment_main("table1_summary", argc - 1, argv + 1);
  }
  if (command == "graph") {
    return graph_tool_main(argc - 1, argv + 1);
  }
  if (command == "run") {
    if (argc < 3 || std::string_view(argv[2]).rfind("--", 0) == 0) {
      std::cerr << "manywalks run: missing experiment name (see `manywalks "
                   "list`)\n";
      return 1;
    }
    return run_experiment_main(argv[2], argc - 2, argv + 2);
  }
  // Convenience: `manywalks fig_cycle_speedup ...` works too.
  if (default_registry().find(command) != nullptr) {
    return run_experiment_main(command, argc - 1, argv + 1);
  }
  std::cerr << "manywalks: unknown command '" << command << "'\n\n";
  print_usage(std::cerr);
  return 1;
}

}  // namespace manywalks::cli
