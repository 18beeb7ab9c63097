// The experiment registry + sinks behind the `manywalks` CLI: registration
// invariants, golden JSON/CSV serialization, reproducibility of a runner,
// a minimal-size smoke run of every registered experiment, and the
// docs/REPRODUCING.md coverage contract enforced in CI.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "cli/driver.hpp"
#include "cli/experiments_common.hpp"
#include "cli/presets.hpp"
#include "cli/registry.hpp"
#include "cli/sinks.hpp"
#include "graph/generators.hpp"
#include "storage/mwg.hpp"

namespace manywalks::cli {
namespace {

ExperimentResult empty_runner(const ExperimentParams&, ThreadPool&) {
  return {};
}

// --- registry ---------------------------------------------------------------

TEST(Registry, DefaultRegistryHasAllExperiments) {
  const ExperimentRegistry& registry = default_registry();
  EXPECT_GE(registry.size(), 17u);
  for (const Experiment* experiment : registry.list()) {
    SCOPED_TRACE(experiment->info.name);
    EXPECT_FALSE(experiment->info.summary.empty());
    EXPECT_FALSE(experiment->info.claim.empty());
    EXPECT_NE(experiment->runner, nullptr);
    // Every registered experiment has a preset row (shared quick/--full
    // sizes) so docs and the CLI agree on the defaults.
    EXPECT_NE(find_preset(experiment->info.name), nullptr);
  }
  for (const char* name :
       {"table1_summary", "fig_cycle_speedup", "fig_expander_speedup",
        "fig_grid_spectrum", "fig_grid_lower_bound", "fig_barbell_speedup",
        "fig_conjectures", "fig_matthews_bounds", "fig_mixing_bound",
        "fig_lemma16", "fig_aldous_concentration", "fig_stationary_start",
        "fig_start_placement", "giant-cycle-speedup", "giant-torus-speedup",
        "mwg-speedup", "mwg-starts"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
}

TEST(Registry, FindUnknownReturnsNull) {
  EXPECT_EQ(default_registry().find("fig_does_not_exist"), nullptr);
  EXPECT_EQ(default_registry().find(""), nullptr);
}

TEST(Registry, DuplicateNameRejected) {
  ExperimentRegistry registry;
  registry.add({"exp", "summary", "claim", 1, {}}, empty_runner);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_THROW(registry.add({"exp", "other", "other", 2, {}}, empty_runner),
               std::invalid_argument);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(Registry, RejectsEmptyNameAndNullRunner) {
  ExperimentRegistry registry;
  EXPECT_THROW(registry.add({"", "s", "c", 1, {}}, empty_runner),
               std::invalid_argument);
  EXPECT_THROW(registry.add({"ok", "s", "c", 1, {}}, ExperimentRunner{}),
               std::invalid_argument);
}

TEST(Registry, RunStampsCensoredCellTally) {
  // Runners don't have to remember to surface censoring: the registry
  // counts flagged cells after the runner returns.
  ExperimentRegistry registry;
  registry.add({"exp", "summary", "claim", 1, {}},
               [](const ExperimentParams&, ThreadPool&) {
                 ExperimentResult result;
                 McResult capped;
                 capped.ci.mean = 100.0;
                 capped.ci.half_width = 1.0;
                 capped.censored = 3;
                 ResultTable table("tbl", "Title");
                 table.add_column("est").add_column("clean");
                 table.begin_row();
                 table.mean_pm(capped);
                 table.mean_pm(5.0, 0.5);
                 result.tables.push_back(std::move(table));
                 return result;
               });
  ThreadPool pool(1);
  const ExperimentResult result =
      registry.find("exp")->run(ExperimentParams{}, pool);
  EXPECT_EQ(result.censored_cells, 1u);
  EXPECT_NE(render_json(result).find("\"censored\": 3"), std::string::npos);
}

TEST(Registry, GeometricKsIsOverflowSafe) {
  const std::vector<unsigned> doubling = geometric_ks(64);
  EXPECT_EQ(doubling, (std::vector<unsigned>{1, 2, 4, 8, 16, 32, 64}));
  EXPECT_EQ(geometric_ks(1), std::vector<unsigned>{1});
  EXPECT_EQ(geometric_ks(0), std::vector<unsigned>{1});
  EXPECT_EQ(geometric_ks(256, 4), (std::vector<unsigned>{1, 4, 16, 64, 256}));
  // A 64-bit --kmax must terminate (no wrap-around loop) and stay within
  // the unsigned range.
  const auto huge =
      geometric_ks(std::numeric_limits<std::uint64_t>::max());
  ASSERT_FALSE(huge.empty());
  EXPECT_LE(huge.size(), 32u);
  EXPECT_EQ(huge.back(), 1u << 31);
}

TEST(Registry, GiantExperimentsHandleDegenerateTargets) {
  // --target 1 is degenerate (the start vertex covers it at t = 0); the
  // runner clamps to 2 instead of aborting inside combine_speedup.
  const Experiment* experiment =
      default_registry().find("giant-cycle-speedup");
  ASSERT_NE(experiment, nullptr);
  ExperimentParams params;
  params.seed = experiment->info.default_seed;
  params.n = 48;
  params.trials = 8;
  params.kmax = 2;
  params.target = 1;
  ThreadPool pool(2);
  const ExperimentResult result = experiment->run(params, pool);
  ASSERT_FALSE(result.tables.empty());
  EXPECT_FALSE(result.tables.front().rows().empty());
}

TEST(Registry, PresetResolutionPrefersExplicitFlags) {
  const ExperimentPreset& preset = preset_for("fig_cycle_speedup");
  ExperimentParams params;
  EXPECT_EQ(resolve_n(preset, params), preset.quick_n);
  params.full = true;
  EXPECT_EQ(resolve_n(preset, params), preset.full_n);
  params.n = 99;
  EXPECT_EQ(resolve_n(preset, params), 99u);

  const McOptions mc = preset_mc(100);
  EXPECT_EQ(mc.min_trials, 25u);
  EXPECT_EQ(mc.max_trials, 100u);
  EXPECT_EQ(preset_mc(8).min_trials, 8u);  // floor at 8
  const McOptions few = preset_mc(3);  // the floor never exceeds the budget
  EXPECT_EQ(few.min_trials, 3u);
  EXPECT_EQ(few.max_trials, 3u);
}

// --- sinks ------------------------------------------------------------------

ExperimentResult golden_result() {
  ExperimentResult result;
  result.name = "golden";
  result.claim = "claim";
  result.params.emplace_back("seed", ResultCell{std::uint64_t{7}});
  result.params.emplace_back("full", ResultCell{false});
  result.preamble = {"pre line"};
  ResultTable table("tbl", "Title");
  table.add_column("name", /*left=*/true)
      .add_column("count")
      .add_column("value")
      .add_column("est");
  table.begin_row();
  table.text("a,b \"q\"");
  table.count(1234567);
  table.real(1.5, 3);
  table.mean_pm(2.25, 0.5, 3, /*censored=*/2);
  table.rule();
  table.begin_row();
  table.text("line\nbreak");
  table.count(0);
  table.blank();
  table.real(0.1, 4);
  result.tables.push_back(std::move(table));
  result.notes = {"note 1", "note 2"};
  result.has_verdict = true;
  result.passed = false;
  result.censored_cells = count_censored_cells(result);
  result.elapsed_seconds = 0.5;
  return result;
}

TEST(Sinks, JsonGolden) {
  const std::string expected = R"json({
  "experiment": "golden",
  "claim": "claim",
  "params": {
    "seed": 7,
    "full": false
  },
  "preamble": [
    "pre line"
  ],
  "tables": [
    {
      "id": "tbl",
      "title": "Title",
      "columns": ["name", "count", "value", "est"],
      "rows": [
        ["a,b \"q\"", 1234567, 1.5, {"mean": 2.25, "half_width": 0.5, "censored": 2}],
        ["line\nbreak", 0, null, 0.1]
      ]
    }
  ],
  "notes": [
    "note 1",
    "note 2"
  ],
  "censored_cells": 1,
  "passed": false,
  "elapsed_seconds": 0.5
}
)json";
  EXPECT_EQ(render_json(golden_result()), expected);
}

TEST(Sinks, CsvGoldenWithMeanPmExpansionAndQuoting) {
  const std::string expected =
      "name,count,value,est,est (±),est (censored)\n"
      "\"a,b \"\"q\"\"\",1234567,1.5,2.25,0.5,2\n"
      "\"line\nbreak\",0,,0.1,,\n";
  EXPECT_EQ(render_csv(golden_result().tables.front()), expected);
}

TEST(Sinks, UncensoredEstimatesRenderWithoutCensoredArtifacts) {
  // The pre-fix shapes are preserved exactly when nothing was censored:
  // no "censored" JSON key, no "(censored)" CSV column, no "†" marker.
  ExperimentResult result;
  result.name = "clean";
  result.claim = "claim";
  ResultTable table("tbl", "Title");
  table.add_column("est");
  table.begin_row();
  table.mean_pm(10.0, 2.0, 3);
  result.tables.push_back(std::move(table));
  const std::string json = render_json(result);
  EXPECT_EQ(json.find("\"censored\":"), std::string::npos);
  EXPECT_NE(json.find("\"censored_cells\": 0"), std::string::npos);
  EXPECT_EQ(render_csv(result.tables.front()),
            "est,est (±)\n10,2\n");
  EXPECT_EQ(cell_text(ResultCell{MeanPmCell{10.0, 2.0, 3}}),
            format_mean_pm(10.0, 2.0, 3));
}

TEST(Sinks, TextRenderMatchesLegacyLayout) {
  std::ostringstream os;
  render_text(golden_result(), os);
  const std::string text = os.str();
  EXPECT_NE(text.find("pre line\n"), std::string::npos);
  EXPECT_NE(text.find("Title"), std::string::npos);
  EXPECT_NE(text.find("1,234,567"), std::string::npos);  // thousands separator
  EXPECT_NE(text.find("note 2\n"), std::string::npos);
  EXPECT_NE(text.find("Elapsed: 0.5 s\n"), std::string::npos);
  // Censored estimates carry the dagger and trigger the lower-bound
  // warning line.
  EXPECT_NE(text.find("†"), std::string::npos);
  EXPECT_NE(text.find("WARNING: 1 estimate(s)"), std::string::npos);
}

TEST(Sinks, ParseOutputFormat) {
  OutputFormat format = OutputFormat::kText;
  EXPECT_TRUE(parse_output_format("json", &format));
  EXPECT_EQ(format, OutputFormat::kJson);
  EXPECT_TRUE(parse_output_format("csv", &format));
  EXPECT_EQ(format, OutputFormat::kCsv);
  EXPECT_TRUE(parse_output_format("text", &format));
  EXPECT_EQ(format, OutputFormat::kText);
  EXPECT_FALSE(parse_output_format("yaml", &format));
}

TEST(Sinks, CellTextFormatting) {
  EXPECT_EQ(cell_text(ResultCell{}), "-");
  EXPECT_EQ(cell_text(ResultCell{std::string("x")}), "x");
  EXPECT_EQ(cell_text(ResultCell{std::uint64_t{1234567}}),
            format_count(1234567));
  EXPECT_EQ(cell_text(ResultCell{RealCell{3.14159, 3}}),
            format_double(3.14159, 3));
  EXPECT_EQ(cell_text(ResultCell{MeanPmCell{10.0, 2.0, 3}}),
            format_mean_pm(10.0, 2.0, 3));
}

// --- end-to-end: runners ----------------------------------------------------

/// Small stored-graph fixture for the mwg-* experiments (written once; the
/// smoke test must exercise the registered runners' real mmap load path).
const std::string& mwg_smoke_fixture() {
  static const std::string path = [] {
    const std::string p =
        (std::filesystem::temp_directory_path() / "manywalks_test_cli.mwg")
            .string();
    write_mwg(p, make_grid_2d(6));
    return p;
  }();
  return path;
}

ExperimentParams smoke_params(const Experiment& experiment) {
  const std::string& name = experiment.info.name;
  ExperimentParams params;
  params.seed = experiment.info.default_seed;  // as the CLI driver does
  params.trials = 8;
  params.threads = 2;
  params.n = 48;
  if (name == "fig_cycle_speedup") {
    params.n = 33;
    params.kmax = 8;
  } else if (name == "fig_lemma16" || name == "fig_grid_lower_bound" ||
             name == "fig_grid_spectrum") {
    params.n = 36;
  } else if (name == "fig_conjectures") {
    params.n = 32;
  } else if (name == "fig_barbell_speedup") {
    params.n = 31;
  } else if (name == "mwg-speedup" || name == "mwg-starts") {
    params.graph = mwg_smoke_fixture();
    params.kmax = 4;
    params.k = 2;
  }
  return params;
}

TEST(Runners, JsonIsDeterministicForFixedSeed) {
  const Experiment* experiment =
      default_registry().find("fig_cycle_speedup");
  ASSERT_NE(experiment, nullptr);
  const ExperimentParams params = smoke_params(*experiment);
  ThreadPool pool(2);
  const std::string first = render_json(experiment->run(params, pool));
  const std::string second = render_json(experiment->run(params, pool));
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("\"experiment\": \"fig_cycle_speedup\""),
            std::string::npos);
}

TEST(Runners, EveryRegisteredExperimentSmokesAtMinimalSize) {
  ThreadPool pool(2);
  for (const Experiment* experiment : default_registry().list()) {
    const std::string& name = experiment->info.name;
    SCOPED_TRACE(name);
    const ExperimentResult result =
        experiment->run(smoke_params(*experiment), pool);
    EXPECT_EQ(result.name, name);
    EXPECT_EQ(result.claim, experiment->info.claim);
    ASSERT_FALSE(result.tables.empty());
    for (const ResultTable& table : result.tables) {
      SCOPED_TRACE(table.id());
      EXPECT_FALSE(table.id().empty());
      EXPECT_FALSE(table.columns().empty());
      EXPECT_FALSE(table.rows().empty());
      for (const ResultTable::Row& row : table.rows()) {
        EXPECT_LE(row.cells.size(), table.columns().size());
      }
      // Each table serializes through both machine sinks.
      EXPECT_NE(render_csv(table).find('\n'), std::string::npos);
    }
    EXPECT_FALSE(render_json(result).empty());
  }
}

// --- the driver -------------------------------------------------------------

/// A strict JSON syntax check (RFC 8259 grammar; no NaN/Infinity): true iff
/// `text` is exactly one JSON value plus whitespace.
class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return i_ == s_.size();
  }

 private:
  bool value() {
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': return container('}', true);
      case '[': return container(']', false);
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool container(char close, bool object) {
    ++i_;
    skip_ws();
    if (peek(close)) {
      ++i_;
      return true;
    }
    while (true) {
      skip_ws();
      if (object) {
        if (!peek('"') || !string()) return false;
        skip_ws();
        if (!peek(':')) return false;
        ++i_;
        skip_ws();
      }
      if (!value()) return false;
      skip_ws();
      if (peek(close)) {
        ++i_;
        return true;
      }
      if (!peek(',')) return false;
      ++i_;
    }
  }
  bool string() {
    for (++i_; i_ < s_.size(); ++i_) {
      const char c = s_[i_];
      if (c == '"') {
        ++i_;
        return true;
      }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') ++i_;  // the escaped character is never the close
    }
    return false;
  }
  bool literal(const char* word) {
    const std::string w(word);
    if (s_.compare(i_, w.size(), w) != 0) return false;
    i_ += w.size();
    return true;
  }
  bool number() {
    const std::size_t begin = i_;
    if (peek('-')) ++i_;
    if (!digits()) return false;
    if (peek('.')) {
      ++i_;
      if (!digits()) return false;
    }
    if (peek('e') || peek('E')) {
      ++i_;
      if (peek('+') || peek('-')) ++i_;
      if (!digits()) return false;
    }
    return i_ > begin;
  }
  bool digits() {
    const std::size_t begin = i_;
    while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') ++i_;
    return i_ > begin;
  }
  bool peek(char c) const { return i_ < s_.size() && s_[i_] == c; }
  void skip_ws() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\t' ||
            s_[i_] == '\r')) {
      ++i_;
    }
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

TEST(Driver, JsonCheckerAcceptsJsonAndRejectsTheRest) {
  for (const char* good :
       {"{}", "[1, -2.5e3, true, null]", R"({"a": {"b": ["\"x"]}})"}) {
    EXPECT_TRUE(JsonChecker(good).valid()) << good;
  }
  for (const char* bad : {"", "{", "[1,]", "{\"a\" 1}", "nan", "[1] x"}) {
    EXPECT_FALSE(JsonChecker(bad).valid()) << bad;
  }
}

struct DriverRun {
  int exit_code = 0;
  std::string out;
  std::string err;
};

/// `manywalks run <name> <args...>` in process, stdout/stderr captured.
DriverRun run_driver(const std::string& name, std::vector<std::string> args) {
  args.insert(args.begin(), name);  // argv[0] slot, as manywalks_main passes
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  std::ostringstream out;
  std::ostringstream err;
  std::streambuf* const saved_out = std::cout.rdbuf(out.rdbuf());
  std::streambuf* const saved_err = std::cerr.rdbuf(err.rdbuf());
  DriverRun run;
  run.exit_code =
      run_experiment_main(name, static_cast<int>(argv.size()), argv.data());
  std::cout.rdbuf(saved_out);
  std::cerr.rdbuf(saved_err);
  run.out = out.str();
  run.err = err.str();
  return run;
}

TEST(Driver, FewTrialsRunToValidJson) {
  // Under 8 trials the preset's min_trials floor used to exceed the
  // budget and abort the run. Pinned shards run the few trials in lanes
  // mode.
  const DriverRun giant = run_driver(
      "giant-cycle-speedup", {"--trials", "2", "--lane-shards", "2",
                              "--threads", "3", "--target", "256", "--kmax",
                              "8", "--format=json"});
  EXPECT_EQ(giant.exit_code, 0) << giant.err;
  EXPECT_TRUE(JsonChecker(giant.out).valid()) << giant.out;
  EXPECT_NE(giant.out.find("\"parallelism\": \"lanes\""), std::string::npos);
  EXPECT_NE(giant.out.find("\"lane_shards\": 2"), std::string::npos);

  const DriverRun table1 =
      run_driver("table1_summary", {"--trials", "2", "--format=json"});
  EXPECT_EQ(table1.exit_code, 0) << table1.err;
  EXPECT_TRUE(JsonChecker(table1.out).valid()) << table1.out;

  // One trial is valid too: every estimate is reported with an undefined
  // (null) confidence half-width.
  const DriverRun one =
      run_driver("fig_cycle_speedup", {"--trials", "1", "--format=json"});
  EXPECT_EQ(one.exit_code, 0) << one.err;
  EXPECT_TRUE(JsonChecker(one.out).valid()) << one.out;
  EXPECT_NE(one.out.find("\"trials\": 1"), std::string::npos);
  EXPECT_NE(one.out.find("\"half_width\": null"), std::string::npos);
}

/// `json` without the lines that echo the schedule, not the results.
std::string drop_schedule_echo(const std::string& json) {
  std::istringstream in(json);
  std::string kept;
  for (std::string line; std::getline(in, line);) {
    if (line.find("\"elapsed_seconds\"") != std::string::npos ||
        line.find("\"parallelism\"") != std::string::npos ||
        line.find("\"lane_shards\"") != std::string::npos) {
      continue;
    }
    kept += line + '\n';
  }
  return kept;
}

TEST(Driver, LaneShardingIsOptInAndMovesNoNumber) {
  // Few long wide trials stay trial-parallel unless --lane-shards pins a
  // shard count; either schedule yields the same tables (contract v3).
  const std::vector<std::string> args = {"--trials", "4",   "--threads",
                                         "3",        "--kmax", "1024",
                                         "--target", "256", "--format=json"};
  const DriverRun trials = run_driver("giant-cycle-speedup", args);
  std::vector<std::string> pinned_args = args;
  pinned_args.insert(pinned_args.end(), {"--lane-shards", "3"});
  const DriverRun lanes = run_driver("giant-cycle-speedup", pinned_args);
  ASSERT_EQ(trials.exit_code, 0) << trials.err;
  ASSERT_EQ(lanes.exit_code, 0) << lanes.err;
  EXPECT_NE(trials.out.find("\"parallelism\": \"trials\""), std::string::npos);
  EXPECT_NE(trials.out.find("\"lane_shards\": 0"), std::string::npos);
  EXPECT_NE(lanes.out.find("\"parallelism\": \"lanes\""), std::string::npos);
  EXPECT_NE(lanes.out.find("\"lane_shards\": 3"), std::string::npos);
  EXPECT_NE(trials.out.find("\"tables\""), std::string::npos);
  EXPECT_EQ(drop_schedule_echo(trials.out), drop_schedule_echo(lanes.out));
}

TEST(Driver, BlockWalkRejectsOptionsItCannotHonor) {
  // The block engine walks each trial on one thread, so a lane-shard cap
  // would be silently ignored; like --mem-budget without --block-walk, the
  // combination is a clean error, never a run.
  for (const char* name : {"mwg-speedup", "mwg-starts"}) {
    SCOPED_TRACE(name);
    const DriverRun sharded =
        run_driver(name, {"--graph", mwg_smoke_fixture(), "--block-walk",
                          "--lane-shards", "4"});
    EXPECT_EQ(sharded.exit_code, 1);
    EXPECT_TRUE(sharded.out.empty()) << sharded.out;
    EXPECT_NE(sharded.err.find("--lane-shards"), std::string::npos)
        << sharded.err;
    const DriverRun budget =
        run_driver(name, {"--graph", mwg_smoke_fixture(), "--mem-budget",
                          "64K"});
    EXPECT_EQ(budget.exit_code, 1);
    EXPECT_NE(budget.err.find("--mem-budget"), std::string::npos)
        << budget.err;
  }
}

TEST(Driver, OversizedWalkAndThreadCountsFailCleanly) {
  // Each count is rejected before any sweep, with the flag and its limit
  // in the message: none may wrap through a cast to unsigned, start a
  // 2^21-token trial, or start a thread pool of the requested size.
  struct Case {
    const char* experiment;
    const char* arg;
    const char* flag;
    const char* limit;
  };
  const Case cases[] = {
      {"fig_start_placement", "--k=4294967297", "--k", "1048576"},
      {"fig_start_placement", "--k=4294967296", "--k", "1048576"},
      {"fig_cycle_speedup", "--kmax=2097152", "--kmax", "1048576"},
      {"fig_barbell_speedup", "--ck=1e300", "--ck", "1048576"},
      {"fig_barbell_speedup", "--ck=inf", "--ck", "finite"},
      {"fig_cycle_speedup", "--threads=1025", "--threads", "1024"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(c.experiment) + " " + c.arg);
    const DriverRun run = run_driver(c.experiment, {c.arg, "--trials=2"});
    EXPECT_EQ(run.exit_code, 1);
    EXPECT_TRUE(run.out.empty()) << run.out;
    EXPECT_NE(run.err.find(c.flag), std::string::npos) << run.err;
    EXPECT_NE(run.err.find(c.limit), std::string::npos) << run.err;
  }
}

// --- docs contract ----------------------------------------------------------

TEST(Docs, ReproducingGuideListsEveryExperiment) {
  const std::string path =
      std::string(MANYWALKS_SOURCE_DIR) + "/docs/REPRODUCING.md";
  std::ifstream file(path);
  ASSERT_TRUE(file.good()) << "missing " << path;
  std::stringstream buffer;
  buffer << file.rdbuf();
  const std::string doc = buffer.str();
  for (const Experiment* experiment : default_registry().list()) {
    EXPECT_NE(doc.find(experiment->info.name), std::string::npos)
        << experiment->info.name
        << " is registered but undocumented in docs/REPRODUCING.md";
  }
}

}  // namespace
}  // namespace manywalks::cli
