#include "workloads.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <numeric>
#include <optional>
#include <span>
#include <string>

#include "core/analyzer.hpp"
#include "core/families.hpp"
#include "graph/generators.hpp"
#include "graph/substrate.hpp"
#include "mc/estimators.hpp"
#include "storage/block_store.hpp"
#include "storage/mapped_graph.hpp"
#include "storage/mwg.hpp"
#include "theory/closed_forms.hpp"
#include "util/rng.hpp"
#include "walk/block_engine.hpp"
#include "walk/cover.hpp"

namespace perfbench {

namespace mw = manywalks;
using manywalks::CoverOptions;
using manywalks::McOptions;
using manywalks::McResult;
using manywalks::Vertex;
using manywalks::obs::TraceWriter;

namespace {

/// Fixed work: every estimate runs exactly `trials` trials, so the work of
/// a repetition is a pure function of workload and seed.
McOptions fixed_trials(std::uint64_t trials, std::uint64_t seed) {
  McOptions mc;
  mc.min_trials = trials;
  mc.max_trials = trials;
  mc.seed = seed;
  return mc;
}

bool same_estimate(const McResult& a, const McResult& b) {
  Digest da;
  Digest db;
  da.add(a);
  db.add(b);
  return da == db;
}

/// Monte-Carlo layer figures gathered over a traced repetition.
struct McSplit {
  double busy_s = 0.0;      ///< Σ per-trial walk seconds × executors each used
  double capacity_s = 0.0;  ///< Σ kExecutors × estimate wall
  std::uint64_t trials = 0;
  std::uint64_t lanes_trials = 0;  ///< trials the policy ran in kLanes mode

  void write(Layers& layers) const {
    layers["mc.efficiency"] = capacity_s > 0.0 ? busy_s / capacity_s : 0.0;
    layers["mc.lanes_mode"] =
        trials > 0 && lanes_trials * 2 >= trials ? 1.0 : 0.0;
  }
};

/// One cover estimate as its layer calls: the mc layer's thread-budget
/// policy and run_monte_carlo, over the walk layer's cover.hpp sampler,
/// each trial timed. With a pool this is estimate_cover_to_target's own
/// body, so the result is bit-identical to that library call. With no pool
/// every trial runs on the caller: the serial lane engine, or the sharded
/// driver inline when cover.lane_shards > 0 (same result, contract v3).
template <mw::Substrate S>
McResult cover_estimate(const S& substrate, Vertex start, unsigned k,
                        Vertex target, const McOptions& mc, CoverOptions cover,
                        mw::ThreadPool* pool, McSplit* split,
                        TraceWriter* trace) {
  McOptions planned = mc;
  mw::McParallelism mode = mw::McParallelism::kLanes;
  if (pool != nullptr) {
    mode = mw::apply_thread_budget(k, pool, planned, cover);
  } else {
    planned.parallelism = mw::McParallelism::kLanes;
    cover.shard_pool = nullptr;
  }
  std::vector<double> trial_s(planned.max_trials, 0.0);
  Phase phase(trace, "mc.estimate");
  phase.set_args("\"k\":" + std::to_string(k) +
                 ",\"trials\":" + std::to_string(planned.max_trials) +
                 ",\"mode\":\"" + mw::parallelism_name(mode) + "\"");
  const McResult result = mw::run_monte_carlo(
      [&](std::uint64_t index, mw::Rng& rng) {
        const double t0 = now_s();
        const std::vector<Vertex> starts(k, start);
        const mw::CoverSample sample =
            mw::sample_cover_to_target(substrate, starts, target, rng, cover);
        trial_s[index] = now_s() - t0;
        return mw::TrialOutcome{static_cast<double>(sample.steps),
                                !sample.covered};
      },
      planned, pool);
  const double wall = phase.stop();
  if (split != nullptr) {
    // A kLanes trial occupies the whole shard team; a kTrials trial one
    // executor.
    const unsigned shards = cover.lane_shards > 0
                                ? cover.lane_shards
                                : mw::auto_lane_shards(k);
    const double team =
        mode == mw::McParallelism::kLanes && cover.shard_pool != nullptr
            ? std::min<double>(cover.shard_pool->size() + 1, shards)
            : 1.0;
    split->busy_s +=
        team * std::accumulate(trial_s.begin(), trial_s.end(), 0.0);
    split->capacity_s += kExecutors * wall;
    split->trials += planned.max_trials;
    if (mode == mw::McParallelism::kLanes) {
      split->lanes_trials += planned.max_trials;
    }
  }
  return result;
}

/// The S^k curve as its layer calls, seeded exactly like
/// estimate_speedup_curve_to_target (mc/estimators.hpp): the k = 1
/// baseline on stream mix64(seed ^ 0x1a1c), each k on
/// mix64(seed ^ (0xbeef00 + k)).
template <mw::Substrate S>
std::vector<mw::SpeedupEstimate> speedup_curve(const S& substrate,
                                               Vertex start,
                                               std::span<const unsigned> ks,
                                               const McOptions& mc,
                                               mw::ThreadPool* pool,
                                               McSplit* split,
                                               TraceWriter* trace) {
  const Vertex n = substrate.num_vertices();
  McOptions base = mc;
  base.seed = mw::mix64(mc.seed ^ 0x1a1cULL);
  const McResult single =
      cover_estimate(substrate, start, 1, n, base, mw::lane_cover_options(),
                     pool, split, trace);
  std::vector<mw::SpeedupEstimate> curve;
  for (const unsigned k : ks) {
    McOptions per_k = mc;
    per_k.seed = mw::mix64(mc.seed ^ (0xbeef00ULL + k));
    const McResult multi =
        k == 1 ? single
               : cover_estimate(substrate, start, k, n, per_k,
                                mw::lane_cover_options(), pool, split, trace);
    mw::SpeedupEstimate estimate = mw::combine_speedup(k, single, multi);
    if (k == 1) {
      estimate.half_width = 0.0;
      estimate.censored = 0;
    }
    curve.push_back(estimate);
  }
  return curve;
}

/// Folds a curve into the digest and its walk work into token_steps; the
/// k = 1 baseline is one estimate shared by every point.
void digest_curve(const std::vector<mw::SpeedupEstimate>& curve,
                  Digest& digest) {
  digest.add_steps(curve.front().single, 1);
  for (const mw::SpeedupEstimate& estimate : curve) {
    digest.add(estimate);
    if (estimate.k > 1) digest.add_steps(estimate.multi, estimate.k);
  }
}

void count_curve_trials(const std::vector<mw::SpeedupEstimate>& curve,
                        const std::string& graph, Ledger& ledger) {
  ledger.trials(curve.front().single, graph + " k=1");
  for (const mw::SpeedupEstimate& estimate : curve) {
    if (estimate.k > 1) {
      ledger.trials(estimate.multi,
                    graph + " k=" + std::to_string(estimate.k));
    }
  }
}

// ---------------------------------------------------------------------------
// speedup: the paper's S^k curve on an expander and on the cycle.
// ---------------------------------------------------------------------------

class SpeedupWorkload final : public Workload {
 public:
  explicit SpeedupWorkload(const Context& context) : ctx_(context) {}

  int setup_reps() const override { return 5; }

  SetupTimes setup(TraceWriter* trace) override {
    expander_.reset();
    cycle_.reset();
    SetupTimes times;
    Phase build(trace, "graph.build");
    mw::Rng rng(mw::mix64(ctx_.seed ^ 0x5eed'e8a7ULL));
    expander_ = mw::make_random_regular(kExpanderN, 8, rng);
    cycle_ = mw::make_cycle(kCycleN);
    times.build_s = build.stop();
    return times;
  }

  Digest run(Ledger& ledger) override {
    const auto expander = mw::estimate_speedup_curve(
        *expander_, 0, kKs, expander_mc(), mw::lane_cover_options(),
        ctx_.pool);
    const auto cycle = mw::estimate_speedup_curve(
        *cycle_, 0, kKs, cycle_mc(), mw::lane_cover_options(), ctx_.pool);
    return finish(expander, cycle, ledger);
  }

  Digest run_layered(Ledger& ledger, Layers& layers,
                     TraceWriter* trace) override {
    McSplit split;
    const auto expander =
        speedup_curve(mw::CsrSubstrate(*expander_), 0, kKs, expander_mc(),
                      ctx_.pool, &split, trace);
    const auto cycle = speedup_curve(mw::CsrSubstrate(*cycle_), 0, kKs,
                                     cycle_mc(), ctx_.pool, &split, trace);
    split.write(layers);
    return finish(expander, cycle, ledger);
  }

  void probe(Ledger& ledger, Layers& layers, TraceWriter* trace,
             double /*untraced_wall_s*/, const Digest& reference) override {
    // The same trials through the samplers on the caller, with no pool.
    Phase phase(trace, "walk.serial_samplers");
    const auto expander = speedup_curve(mw::CsrSubstrate(*expander_), 0, kKs,
                                        expander_mc(), nullptr, nullptr,
                                        trace);
    const auto cycle = speedup_curve(mw::CsrSubstrate(*cycle_), 0, kKs,
                                     cycle_mc(), nullptr, nullptr, trace);
    const double seconds = phase.stop();
    Ledger scratch;
    const Digest digest = finish(expander, cycle, scratch);
    ledger.check(scratch.failed == 0 && digest == reference,
                 "speedup: serial sampler pass reproduces the pooled curves");
    layers["walk.lane_steps_per_s"] =
        static_cast<double>(digest.token_steps) / seconds;
  }

 private:
  static constexpr Vertex kExpanderN = 1u << 18;
  static constexpr Vertex kCycleN = 1025;
  static constexpr std::array<unsigned, 5> kKs = {1, 4, 16, 64, 256};

  McOptions expander_mc() const {
    return fixed_trials(6, mw::mix64(ctx_.seed ^ 0xe8a7ULL));
  }
  McOptions cycle_mc() const {
    McOptions mc = fixed_trials(48, mw::mix64(ctx_.seed ^ 0xc7c1eULL));
    // The cycle check asks whether the CI holds the exact cover time; at
    // 99.99% a correct program misses it about once in 10^4 seeds.
    mc.confidence = 0.9999;
    return mc;
  }

  Digest finish(const std::vector<mw::SpeedupEstimate>& expander,
                const std::vector<mw::SpeedupEstimate>& cycle,
                Ledger& ledger) {
    count_curve_trials(expander, "speedup: expander", ledger);
    count_curve_trials(cycle, "speedup: cycle", ledger);
    double oracle = mw::cycle_cover_time(kCycleN);  // n(n-1)/2
    if (ctx_.corrupt_oracle) oracle *= 2.0;
    const mw::ConfidenceInterval& ci = cycle.front().single.ci;
    ledger.check(ci.lo() <= oracle && oracle <= ci.hi(),
                 "speedup: cycle cover-time CI [" + std::to_string(ci.lo()) +
                     ", " + std::to_string(ci.hi()) + "] holds n(n-1)/2 = " +
                     std::to_string(oracle));
    Digest digest;
    digest_curve(expander, digest);
    digest_curve(cycle, digest);
    return digest;
  }

  Context ctx_;
  std::optional<mw::Graph> expander_;
  std::optional<mw::Graph> cycle_;
};

// ---------------------------------------------------------------------------
// table1: the serial theory/linalg half of Table 1 plus its cover column.
// Everything runs on the caller. The cover trials last about a millisecond
// each, and the pool's sleeping workers sometimes share the caller's CPU and
// sometimes not, so pooled they switched the repetition between two speeds;
// `speedup` measures the pool. measure_h_max still gets the pool, which its
// exact solve does not use today.
// ---------------------------------------------------------------------------

class Table1Workload final : public Workload {
 public:
  explicit Table1Workload(const Context& context) : ctx_(context) {}

  int setup_reps() const override { return 15; }

  SetupTimes setup(TraceWriter* trace) override {
    instances_.clear();
    SetupTimes times;
    Phase build(trace, "graph.build");
    for (const mw::GraphFamily family : mw::table1_families()) {
      instances_.push_back(mw::make_family_instance(family, kTargetN,
                                                    ctx_.seed));
    }
    times.build_s = build.stop();
    return times;
  }

  Digest run(Ledger& ledger) override {
    Digest digest;
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      const mw::FamilyInstance& inst = instances_[i];
      const mw::HmaxEstimate h_max =
          mw::measure_h_max(inst.graph, mc(i), kExactLimit, ctx_.pool);
      const mw::MixingMeasurement mixing = mw::measure_mixing_time(
          inst.graph, inst.needs_lazy_mixing, kMixingCap);
      const McResult cover =
          mw::estimate_cover_time(inst.graph, inst.start, mc(i),
                                  mw::lane_cover_options(), nullptr);
      record(inst, h_max, mixing, cover, ledger, digest);
    }
    return digest;
  }

  Digest run_layered(Ledger& ledger, Layers& layers,
                     TraceWriter* trace) override {
    Digest digest;
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      const mw::FamilyInstance& inst = instances_[i];
      Phase h_phase(trace, "theory.h_max");
      const mw::HmaxEstimate h_max =
          mw::measure_h_max(inst.graph, mc(i), kExactLimit, ctx_.pool);
      layers["theory.hmax_s"] += h_phase.stop();
      Phase mix_phase(trace, "linalg.mixing");
      const mw::MixingMeasurement mixing = mw::measure_mixing_time(
          inst.graph, inst.needs_lazy_mixing, kMixingCap);
      layers["linalg.mixing_s"] += mix_phase.stop();
      layers["linalg.mixing_steps"] += static_cast<double>(mixing.time);
      Phase cover_phase(trace, "mc.estimate");
      const McResult cover =
          mw::estimate_cover_time(inst.graph, inst.start, mc(i),
                                  mw::lane_cover_options(), nullptr);
      cover_phase.stop();
      record(inst, h_max, mixing, cover, ledger, digest);
    }
    return digest;
  }

  void probe(Ledger& ledger, Layers& layers, TraceWriter* trace,
             double /*untraced_wall_s*/, const Digest& /*reference*/) override {
    Phase phase(trace, "walk.serial_samplers");
    Digest steps;
    std::vector<McResult> covers;
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      const mw::FamilyInstance& inst = instances_[i];
      covers.push_back(cover_estimate(
          mw::CsrSubstrate(inst.graph), inst.start, 1,
          inst.graph.num_vertices(), mc(i), mw::lane_cover_options(), nullptr,
          nullptr, trace));
      steps.add_steps(covers.back(), 1);
    }
    const double seconds = phase.stop();
    bool same = covers.size() == reference_covers_.size();
    for (std::size_t i = 0; same && i < covers.size(); ++i) {
      same = same_estimate(covers[i], reference_covers_[i]);
    }
    ledger.check(same, "table1: the sampler pass reproduces the library's "
                       "cover estimates");
    layers["walk.lane_steps_per_s"] =
        static_cast<double>(steps.token_steps) / seconds;

    Phase pooled_phase(trace, "mc.estimate.pooled");
    bool pooled_same = true;
    for (std::size_t i = 0; i < instances_.size(); ++i) {
      const mw::FamilyInstance& inst = instances_[i];
      pooled_same =
          pooled_same &&
          same_estimate(mw::estimate_cover_time(inst.graph, inst.start, mc(i),
                                                mw::lane_cover_options(),
                                                ctx_.pool),
                        reference_covers_[i]);
    }
    ledger.check(pooled_same, "table1: pooled cover estimates reproduce the "
                              "serial ones");
  }

 private:
  // Every instance's exact solve streams its n x n system and right-hand
  // sides once per pivot. At this size the largest (the 7^3 torus, about
  // 1.8 MiB) stays inside one core's 2 MiB L2; at 512 the 9^3 torus streams
  // 8 MiB through the shared L3, and its timing follows whatever else runs.
  static constexpr std::uint64_t kTargetN = 256;
  static constexpr std::uint64_t kExactLimit = 1200;  // every instance exact
  static constexpr std::uint64_t kMixingCap = 1'000'000;

  McOptions mc(std::size_t family_index) const {
    return fixed_trials(128, mw::mix64(ctx_.seed ^ (0x7ab1e0ULL + family_index)));
  }

  void record(const mw::FamilyInstance& inst, const mw::HmaxEstimate& h_max,
              const mw::MixingMeasurement& mixing, const McResult& cover,
              Ledger& ledger, Digest& digest) {
    const std::string name = "table1: " + inst.name;
    const double n = inst.graph.num_vertices();
    ledger.check(h_max.exact, name + " h_max solved exactly");
    ledger.check(mixing.converged, name + " mixing time converged");
    ledger.trials(cover, name + " cover");
    std::optional<double> oracle;
    if (inst.family == mw::GraphFamily::kCycle) {
      oracle = (n * n - 1.0) / 4.0;  // odd cycle
    } else if (inst.family == mw::GraphFamily::kComplete) {
      oracle = n - 1.0;
    }
    if (oracle) {
      const double expected = ctx_.corrupt_oracle ? 2.0 * *oracle : *oracle;
      ledger.check(std::abs(h_max.value - expected) <= 1e-9 * expected,
                   name + " exact h_max " + std::to_string(h_max.value) +
                       " equals the closed form " + std::to_string(expected));
    }
    digest.add(h_max.value);
    digest.add(std::uint64_t{h_max.from});
    digest.add(std::uint64_t{h_max.to});
    digest.add(mixing.time);
    digest.add(mixing.laziness);
    digest.add(cover);
    digest.add_steps(cover, 1);
    if (reference_covers_.size() < instances_.size()) {
      reference_covers_.push_back(cover);
    }
  }

  Context ctx_;
  std::vector<mw::FamilyInstance> instances_;
  std::vector<McResult> reference_covers_;
};

// ---------------------------------------------------------------------------
// ooc: the block-scheduled out-of-core walk over an mwg v2 store.
// ---------------------------------------------------------------------------

class OocWorkload final : public Workload {
 public:
  explicit OocWorkload(const Context& context)
      : ctx_(context),
        path_((std::filesystem::path(context.work_dir) /
               ("ooc-" + std::to_string(::getpid()) + ".mwg"))
                  .string()) {}

  ~OocWorkload() override {
    blocked_.reset();
    mapped_.reset();
    std::error_code ignored;
    std::filesystem::remove(path_, ignored);
  }

  OocWorkload(const OocWorkload&) = delete;
  OocWorkload& operator=(const OocWorkload&) = delete;

  int setup_reps() const override { return 5; }

  SetupTimes setup(TraceWriter* trace) override {
    blocked_.reset();
    mapped_.reset();
    SetupTimes times;
    Phase build(trace, "graph.build");
    const mw::Graph graph = mw::make_margulis_expander(kSide);
    times.build_s = build.stop();
    Phase write(trace, "storage.write");
    mw::write_mwg(path_, graph, kBlockBits);
    times.write_s = write.stop();
    Phase open(trace, "storage.open");
    blocked_.emplace(path_);
    mapped_.emplace(path_);
    times.open_s = open.stop();
    // The start is drawn from the seed: margulis is deterministic, so this
    // is where the seed reaches the workload's input.
    mw::Rng rng(mw::mix64(ctx_.seed ^ 0x00cULL));
    start_ = static_cast<Vertex>(rng.uniform_below(graph.num_vertices()));
    return times;
  }

  void prepare(Ledger& /*ledger*/) override {
    // The in-core reference: the same trials walked over the mapped file
    // by the serial lane engine.
    const double t0 = now_s();
    reference_ = cover_estimate(mapped_->substrate(), start_, kK, target(),
                                mc(), mw::lane_cover_options(), nullptr,
                                nullptr, nullptr);
    reference_s_ = now_s() - t0;
    if (ctx_.corrupt_oracle) reference_.ci.mean *= 2.0;
  }

  Digest run(Ledger& ledger) override {
    return finish(blocked_estimate(kTightBudget, nullptr), ledger);
  }

  Digest run_layered(Ledger& ledger, Layers& layers,
                     TraceWriter* trace) override {
    // The blocked estimator runs its trials serially on one shared engine,
    // without the mc layer's thread-budget policy, so the mc layer's
    // efficiency and lanes-mode figures stay idle (0) here.
    mw::BlockedRunTotals totals;
    Phase phase(trace, "walk.block_engine");
    phase.set_args(budget_args(kTightBudget));
    const McResult result = blocked_estimate(kTightBudget, &totals);
    phase.stop();
    layers["walk.horizons"] = static_cast<double>(totals.horizons);
    return finish(result, ledger);
  }

  void probe(Ledger& ledger, Layers& layers, TraceWriter* trace,
             double untraced_wall_s, const Digest& reference) override {
    // The same walk with every extent resident after its first load:
    // what is left of the tight budget's time is mapping churn.
    Phase phase(trace, "walk.block_engine.roomy");
    phase.set_args(budget_args(kRoomyBudget));
    const McResult roomy = blocked_estimate(kRoomyBudget, nullptr);
    const double roomy_s = phase.stop();
    Ledger scratch;
    ledger.check(finish(roomy, scratch) == reference,
                 "ooc: roomy-budget walk reproduces the tight-budget walk");
    layers["storage.churn_s"] = untraced_wall_s - roomy_s;
    layers["walk.block_overhead"] = roomy_s / reference_s_;
    Digest steps;
    steps.add_steps(reference_, kK);
    layers["walk.lane_steps_per_s"] =
        static_cast<double>(steps.token_steps) / reference_s_;
  }

 private:
  static constexpr Vertex kSide = 512;           // n = 2^18
  static constexpr std::uint32_t kBlockBits = 12;  // 64 blocks
  static constexpr unsigned kK = 4096;
  // A quarter of the 8 MiB adjacency, and room for all of it.
  static constexpr std::uint64_t kTightBudget = 2ULL << 20;
  static constexpr std::uint64_t kRoomyBudget = 64ULL << 20;

  Vertex target() const { return blocked_->num_vertices() / 2; }
  McOptions mc() const {
    return fixed_trials(4, mw::mix64(ctx_.seed ^ 0x00c7ULL));
  }
  static std::string budget_args(std::uint64_t budget) {
    return "\"k\":" + std::to_string(kK) +
           ",\"budget_bytes\":" + std::to_string(budget);
  }

  /// The library's blocked estimator on a fresh engine at `budget`.
  McResult blocked_estimate(std::uint64_t budget,
                            mw::BlockedRunTotals* totals) const {
    mw::BlockWalkEngine engine(*blocked_, budget);
    return mw::estimate_cover_to_target_blocked(
        engine, start_, kK, target(), mc(), mw::lane_cover_options(), totals);
  }

  Digest finish(const McResult& result, Ledger& ledger) {
    ledger.trials(result, "ooc: blocked cover-to-target");
    ledger.check(same_estimate(result, reference_),
                 "ooc: block-engine estimate equals the in-core MappedGraph "
                 "estimate (contract v4)");
    // Rounds to half cover barely vary with the seed, so the digest also
    // records which start was walked.
    Digest digest;
    digest.add(std::uint64_t{start_});
    digest.add(result);
    digest.add_steps(result, kK);
    return digest;
  }

  Context ctx_;
  std::string path_;
  std::optional<mw::BlockedGraph> blocked_;
  std::optional<mw::MappedGraph> mapped_;
  Vertex start_ = 0;
  McResult reference_;
  double reference_s_ = 0.0;
};

// ---------------------------------------------------------------------------
// wide: few long full-cover trials, where the policy hands the pool to the
// lane-sharded engine.
// ---------------------------------------------------------------------------

class WideWorkload final : public Workload {
 public:
  explicit WideWorkload(const Context& context) : ctx_(context) {}

  int setup_reps() const override { return 5; }

  SetupTimes setup(TraceWriter* trace) override {
    graph_.reset();
    SetupTimes times;
    Phase build(trace, "graph.build");
    graph_ = mw::make_margulis_expander(kSide);
    times.build_s = build.stop();
    return times;
  }

  void prepare(Ledger& /*ledger*/) override {
    // The serial-lane reference: the same trials on the caller, unsharded.
    const double t0 = now_s();
    references_ = estimates(mw::lane_cover_options(), nullptr, nullptr,
                            nullptr);
    reference_s_ = now_s() - t0;
    if (ctx_.corrupt_oracle) {
      for (McResult& reference : references_) reference.ci.mean *= 2.0;
    }
  }

  Digest run(Ledger& ledger) override {
    std::vector<McResult> results;
    for (unsigned i = 0; i < kEstimates; ++i) {
      results.push_back(mw::estimate_k_cover_time(
          *graph_, kStart, kK, mc(i), mw::lane_cover_options(), ctx_.pool));
    }
    return finish(results, ledger);
  }

  Digest run_layered(Ledger& ledger, Layers& layers,
                     TraceWriter* trace) override {
    McSplit split;
    const std::vector<McResult> results =
        estimates(mw::lane_cover_options(), ctx_.pool, &split, trace);
    split.write(layers);
    return finish(results, ledger);
  }

  void probe(Ledger& ledger, Layers& layers, TraceWriter* trace,
             double /*untraced_wall_s*/, const Digest& reference) override {
    // The sharded round driver with its auto shard count, run inline on
    // one executor: its cost over the serial lane engine is the shard tax.
    CoverOptions sharded = mw::lane_cover_options();
    sharded.lane_shards = mw::auto_lane_shards(kK);
    const double t0 = now_s();
    const std::vector<McResult> one_executor =
        estimates(sharded, nullptr, nullptr, trace);
    const double sharded_s = now_s() - t0;
    Ledger scratch;
    ledger.check(finish(one_executor, scratch) == reference,
                 "wide: one-executor sharded run reproduces the pooled run");
    layers["walk.shard_tax"] = sharded_s / reference_s_;
    Digest steps;
    for (const McResult& result : references_) steps.add_steps(result, kK);
    layers["walk.lane_steps_per_s"] =
        static_cast<double>(steps.token_steps) / reference_s_;
  }

 private:
  static constexpr Vertex kSide = 724;  // n = 524,176, about 2^19
  static constexpr unsigned kK = 4096;
  static constexpr Vertex kStart = 0;
  // Each estimate has five trials, under 2 x executors, so
  // choose_parallelism hands the pool to the lane-sharded engine
  // (auto_lane_shards(4096) = 16 shards). Three estimates make the
  // repetition's work vary less from seed to seed.
  static constexpr unsigned kEstimates = 3;

  McOptions mc(unsigned estimate) const {
    return fixed_trials(5, mw::mix64(ctx_.seed ^ (0x01d7ULL + estimate)));
  }

  std::vector<McResult> estimates(const CoverOptions& cover,
                                  mw::ThreadPool* pool, McSplit* split,
                                  TraceWriter* trace) {
    std::vector<McResult> results;
    for (unsigned i = 0; i < kEstimates; ++i) {
      results.push_back(cover_estimate(mw::CsrSubstrate(*graph_), kStart, kK,
                                       graph_->num_vertices(), mc(i), cover,
                                       pool, split, trace));
    }
    return results;
  }

  Digest finish(const std::vector<McResult>& results, Ledger& ledger) {
    Digest digest;
    for (unsigned i = 0; i < kEstimates; ++i) {
      ledger.trials(results[i], "wide: k=4096 full cover");
      ledger.check(same_estimate(results[i], references_[i]),
                   "wide: sharded estimate " + std::to_string(i) +
                       " equals the serial-lane estimate (contract v3)");
      digest.add(results[i]);
      digest.add_steps(results[i], kK);
    }
    return digest;
  }

  Context ctx_;
  std::optional<mw::Graph> graph_;
  std::vector<McResult> references_;
  double reference_s_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const Context& context) {
  if (name == "speedup") return std::make_unique<SpeedupWorkload>(context);
  if (name == "table1") return std::make_unique<Table1Workload>(context);
  if (name == "ooc") return std::make_unique<OocWorkload>(context);
  if (name == "wide") return std::make_unique<WideWorkload>(context);
  return nullptr;
}

}  // namespace perfbench
