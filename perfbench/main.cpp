// perfbench: runs one benchmark workload against the manywalks library and
// prints its metrics. perfbench/README.md explains the workloads and the
// metrics; perfbench/run.py builds this binary and forwards its arguments.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--corrupt-oracle]
//
// Run it from the repository root: the ooc store, the trace and the
// per-layer file go to .bench_build/perfbench/out. The last line of standard
// output is one JSON object with the keys correct, attempted, failed and
// metrics. The line before it records the run's details and the machine it
// ran on.

#include <sched.h>
#include <stdlib.h>  // getloadavg

#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "obs/metrics.hpp"
#include "obs/observer.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

namespace mw = manywalks;
namespace obs = manywalks::obs;
using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool corrupt_oracle = false;
};

constexpr const char* kOutDir = ".bench_build/perfbench/out";

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-oracle") {
      args.corrupt_oracle = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
      have_seconds = args.seconds > 0.0;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      args.trace = value == "1";
      have_trace = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    throw std::invalid_argument(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
        "[--corrupt-oracle]");
  }
  return args;
}

// --- machine fingerprint ----------------------------------------------------

unsigned usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

std::string read_first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Size of cpu0's unified cache at `level` as the kernel spells it ("2048K").
std::string cache_size(int level) {
  for (int index = 0; index < 8; ++index) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(index);
    if (read_first_line(dir + "/level") == std::to_string(level) &&
        read_first_line(dir + "/type") != "Instruction") {
      return read_first_line(dir + "/size");
    }
  }
  return "unknown";
}

void write_machine(mw::JsonWriter& json, unsigned nproc) {
  double load[3] = {0.0, 0.0, 0.0};
  if (getloadavg(load, 3) < 1) load[0] = -1.0;
  json.key("machine").begin_object();
  json.key("nproc").value_u64(nproc);
  json.key("cpu_model").value_str(cpu_model());
  json.key("l2").value_str(cache_size(2));
  json.key("l3").value_str(cache_size(3));
  json.key("compiler").value_str(PERFBENCH_COMPILER);
  json.key("build_type").value_str(PERFBENCH_BUILD_TYPE);
  json.key("mw_native").value_bool(PERFBENCH_MW_NATIVE != 0);
  json.key("executors").value_u64(kExecutors);
  json.key("loadavg_1m").value_num(load[0]);
  json.end_object();
}

// --- the run ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string result_line(const Ledger& ledger,
                        const std::vector<Metric>& metrics) {
  mw::JsonWriter json;
  json.begin_object();
  json.key("correct").value_bool(ledger.failed == 0);
  json.key("attempted").value_u64(ledger.attempted);
  json.key("failed").value_u64(ledger.failed);
  json.key("metrics").begin_object();
  for (const Metric& metric : metrics) {
    json.key(metric.name).begin_object();
    json.key("value").value_num(metric.value);
    json.key("unit").value_str(metric.unit);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  return json.take();
}

int run(const Args& args) {
  const unsigned nproc = usable_cpus();
  if (kExecutors > nproc) {
    std::cerr << "perfbench: " << kExecutors << " executors (" << kPoolWorkers
              << " pool workers + the caller) exceed the " << nproc
              << " usable CPUs; refusing to run\n";
    return 2;
  }
  std::filesystem::create_directories(kOutDir);

  mw::ThreadPool pool(kPoolWorkers);
  Context context;
  context.seed = args.seed;
  context.work_dir = kOutDir;
  context.corrupt_oracle = args.corrupt_oracle;
  context.pool = &pool;
  const std::unique_ptr<Workload> workload =
      make_workload(args.workload, context);
  if (!workload) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }

  const std::string stem = std::string(kOutDir) + "/" + args.workload +
                           "-seed" + std::to_string(args.seed);
  std::unique_ptr<obs::TraceWriter> trace;
  if (args.trace) trace = std::make_unique<obs::TraceWriter>(stem + ".trace.json");

  // Set-up, several times: setup_s is the median, as are its layers.
  std::vector<double> setup_s, build_s, write_s, open_s;
  for (int i = 0; i < workload->setup_reps(); ++i) {
    Phase phase(trace.get(), "setup");
    const SetupTimes times = workload->setup(trace.get());
    setup_s.push_back(times.total());
    build_s.push_back(times.build_s);
    write_s.push_back(times.write_s);
    open_s.push_back(times.open_s);
  }

  Ledger ledger;
  {
    Phase phase(trace.get(), "prepare");
    workload->prepare(ledger);
  }
  // The warm-up repetition fills caches and per-thread engines; every
  // later repetition must reproduce its outputs bit for bit.
  Digest reference;
  {
    Phase phase(trace.get(), "warmup");
    reference = workload->run(ledger);
  }

  std::vector<Metric> metrics;
  std::vector<double> rep_wall;
  mw::JsonWriter details;
  details.begin_object();
  details.key("perfbench").begin_object();
  details.key("workload").value_str(args.workload);
  details.key("seed").value_u64(args.seed);
  details.key("trace").value_bool(args.trace);
  details.key("token_steps_per_rep").value_u64(reference.token_steps);
  details.key("digest").value_str(reference.hex());

  if (!args.trace) {
    const double start = now_s();
    while (rep_wall.size() < 3 || now_s() - start < args.seconds) {
      Phase phase(nullptr, "rep");
      const Digest digest = workload->run(ledger);
      rep_wall.push_back(phase.stop());
      ledger.check(digest == reference,
                   "repetition " + std::to_string(rep_wall.size()) +
                       " reproduces the warm-up's outputs bit for bit");
    }
    const double wall_s = median(rep_wall);
    metrics = {
        {"wall_s", wall_s, "s"},
        {"token_steps_per_s",
         static_cast<double>(reference.token_steps) / wall_s, "1/s"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MiB"},
    };
  } else {
    Layers layers = make_layers();
    Phase untraced(nullptr, "rep");
    const Digest plain = workload->run(ledger);
    const double untraced_s = untraced.stop();
    ledger.check(plain == reference,
                 "untraced repetition reproduces the warm-up's outputs");

    obs::MetricsRegistry registry;
    obs::RunObserver observer;
    observer.metrics = &registry;
    double traced_s = 0.0;
    {
      const obs::ScopedObserver installed(&observer);
      Phase traced(trace.get(), "rep.layered");
      const Digest layered = workload->run_layered(ledger, layers, trace.get());
      traced_s = traced.stop();
      obs::drain_thread_counters(registry);
      ledger.check(layered == reference,
                   "traced repetition reproduces the untraced estimates bit "
                   "for bit");
    }
    const auto count = [&registry](obs::Metric metric) {
      return static_cast<double>(registry.value(metric));
    };
    {
      Phase phase(trace.get(), "probe");
      workload->probe(ledger, layers, trace.get(), untraced_s, reference);
    }

    layers["graph.build_s"] = median(build_s);
    layers["storage.write_s"] = median(write_s);
    layers["storage.open_s"] = median(open_s);
    layers["storage.extent_loads"] = count(obs::Metric::kCacheLoads);
    layers["storage.extent_hits"] = count(obs::Metric::kCacheHits);
    layers["storage.evictions"] = count(obs::Metric::kCacheEvictions);
    layers["storage.bytes_mapped"] = count(obs::Metric::kCacheBytesLoaded);
    // System CPU is the process's, mostly pool wake-ups and page faults on
    // a workload that maps no extents; only the storage workload reports it.
    layers["storage.sys_s"] =
        count(obs::Metric::kCacheLoads) > 0 ? untraced.sys_s() : 0.0;
    layers["walk.token_steps"] = count(obs::Metric::kSteps);
    layers["walk.rounds"] = count(obs::Metric::kRounds);
    layers["walk.block_visits"] = count(obs::Metric::kBlockVisits);
    layers["walk.bucket_migrations"] = count(obs::Metric::kBucketMigrations);
    layers["walk.replayed_rounds"] = count(obs::Metric::kReplayedRounds);
    layers["walk.merges"] = count(obs::Metric::kMerges);
    layers["walk.merge_stalls"] = count(obs::Metric::kMergeStalls);
    layers["mc.trials"] = count(obs::Metric::kTrialsDone);
    layers["mc.censored"] = count(obs::Metric::kTrialsCensored);
    layers["pool.cpu_s"] = untraced.cpu_s();
    layers["pool.cores_used"] = untraced.cpu_s() / untraced_s;
    layers["obs.trace_overhead"] = traced_s / untraced_s;
    rep_wall = {untraced_s, traced_s};

    for (const auto& [name, unit] : kLayerMetrics) {
      metrics.push_back({name, layers.at(name), unit});
    }
    details.key("trace_file").value_str(trace->path());
    details.key("layers_file").value_str(stem + ".layers.json");
  }

  details.key("setup_s").begin_array();
  for (const double seconds : setup_s) details.value_num(seconds);
  details.end_array();
  details.key("rep_wall_s").begin_array();
  for (const double wall : rep_wall) details.value_num(wall);
  details.end_array();
  details.key("failures").begin_array();
  for (const std::string& failure : ledger.failures) details.value_str(failure);
  details.end_array();
  write_machine(details, nproc);
  details.end_object();
  details.end_object();
  const std::string details_line = details.take();
  const std::string result = result_line(ledger, metrics);

  if (trace) {
    if (!trace->write()) {
      std::cerr << "perfbench: cannot write " << trace->path() << "\n";
      return 1;
    }
    std::ofstream layers_file(stem + ".layers.json");
    layers_file << details_line << "\n" << result << "\n";
    if (!layers_file) {
      std::cerr << "perfbench: cannot write " << stem << ".layers.json\n";
      return 1;
    }
  }
  std::cout << details_line << "\n" << result << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
