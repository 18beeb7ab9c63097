#include "walk/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>
#include <vector>

#include "graph/generators.hpp"
#include "lane_reference.hpp"
#include "util/thread_pool.hpp"
#include "walk/cover.hpp"
#include "walk/visit_tracker.hpp"

namespace manywalks {
namespace {

struct Instance {
  const char* name;
  Graph g;
};

/// Regular graphs run the stride-addressed CSR kernel; the open grid and
/// the lollipop (irregular) run the staged-pipeline CSR kernel.
std::vector<Instance> test_instances() {
  std::vector<Instance> instances;
  instances.push_back({"cycle", make_cycle(64)});
  instances.push_back({"grid2d", make_grid_2d(8)});
  instances.push_back({"grid2d-open", make_grid_2d(8, GridTopology::kOpen)});
  instances.push_back({"hypercube", make_hypercube(6)});
  instances.push_back({"complete", make_complete(32)});
  instances.push_back({"margulis", make_margulis_expander(8)});
  instances.push_back({"lollipop", make_lollipop(24)});
  return instances;
}

/// Runs `trials` cover trials through `engine` and through the lane
/// reference over `oracle` (the same graph): equal steps, equal covered,
/// and the caller's stream advanced by exactly the one lane-master draw.
template <class Engine, class G>
void expect_matches_reference(Engine& engine, const G& oracle,
                              const std::vector<Vertex>& starts,
                              const CoverOptions& options,
                              std::uint64_t seed, std::uint64_t trials) {
  const Vertex target = oracle.num_vertices();
  for (std::uint64_t trial = 0; trial < trials; ++trial) {
    Rng ref_rng = make_trial_rng(seed, trial);
    Rng eng_rng = make_trial_rng(seed, trial);
    const CoverSample expected =
        reference_cover(oracle, starts, target, ref_rng, options);
    engine.reset(starts);
    const CoverSample actual =
        engine.run_until_visited(target, eng_rng, options);
    ASSERT_EQ(expected.steps, actual.steps) << "trial=" << trial;
    ASSERT_EQ(expected.covered, actual.covered) << "trial=" << trial;
    Rng one_draw = make_trial_rng(seed, trial);
    one_draw.next();
    ASSERT_EQ(ref_rng.state(), one_draw.state()) << "trial=" << trial;
    ASSERT_EQ(eng_rng.state(), one_draw.state()) << "trial=" << trial;
  }
}

/// The fixed-rounds twin: run_for_steps (with visit counters) against the
/// reference rounds — equal tokens, visited set, counters and stream.
template <class Engine, class G>
void expect_steps_match_reference(Engine& engine, const G& oracle,
                                  const std::vector<Vertex>& starts,
                                  std::uint64_t rounds, double laziness) {
  const Vertex n = oracle.num_vertices();
  Rng ref_rng(0x57e9ULL);
  Rng eng_rng(0x57e9ULL);
  ReferenceLanes<G> ref(oracle, starts);
  std::vector<std::uint64_t> ref_counts(n, 0);
  ref.seed(ref_rng);
  for (std::uint64_t t = 0; t < rounds; ++t) {
    ref.round(laziness, ref_counts.data());
  }

  std::vector<std::uint64_t> counts(n, 0);
  engine.reset(starts);
  engine.run_for_steps(rounds, eng_rng, laziness, counts.data());
  EXPECT_EQ(ref_rng.state(), eng_rng.state());
  EXPECT_EQ(ref_counts, counts);
  EXPECT_EQ(ref.num_visited, engine.num_visited());
  ASSERT_EQ(ref.tokens.size(), engine.tokens().size());
  for (std::size_t i = 0; i < ref.tokens.size(); ++i) {
    EXPECT_EQ(ref.tokens[i], engine.tokens()[i]) << "lane " << i;
  }
  for (Vertex v = 0; v < n; ++v) {
    ASSERT_EQ(ref.visited[v] != 0, engine.visited(v)) << "v=" << v;
  }
}

/// Stride and staged-pipeline CSR kernels against the lane reference.
void expect_csr_kernels_match_reference(double laziness) {
  CoverOptions options;
  options.laziness = laziness;
  for (const auto& [name, g] : test_instances()) {
    WalkEngine engine(g);
    for (unsigned k : {1u, 3u, 16u, 37u}) {
      SCOPED_TRACE(::testing::Message() << name << " k=" << k);
      expect_matches_reference(engine, g, std::vector<Vertex>(k, 0), options,
                               0x5eedULL, 8);
    }
  }
}

TEST(WalkEngine, ByteIdenticalToReferenceAcrossTrialStreams) {
  expect_csr_kernels_match_reference(0.0);
}

TEST(WalkEngine, ByteIdenticalToReferenceWithLaziness) {
  expect_csr_kernels_match_reference(0.3);
}

TEST(WalkEngine, DirectKernelsMatchLaneReference) {
  // The fused direct kernel over each implicit substrate: mask draws
  // (cycle, torus, K_33), full-word Lemire draws (hypercube degree 6,
  // K_32), simple and lazy walks.
  const auto check = [](const auto& substrate, const char* name) {
    WalkEngineT<std::decay_t<decltype(substrate)>> engine(substrate);
    for (const double laziness : {0.0, 0.3}) {
      CoverOptions options;
      options.laziness = laziness;
      for (unsigned k : {1u, 5u, 20u}) {
        SCOPED_TRACE(::testing::Message() << name << " k=" << k
                                          << " laziness=" << laziness);
        expect_matches_reference(engine, substrate,
                                 std::vector<Vertex>(k, 1), options, 0xd1ULL,
                                 8);
      }
    }
  };
  check(CycleSubstrate(64), "cycle");
  check(TorusSubstrate(8), "torus");
  check(HypercubeSubstrate(6), "hypercube");
  check(CompleteSubstrate(32), "complete32");
  check(CompleteSubstrate(33), "complete33");
}

TEST(WalkEngine, RunForStepsMatchesLaneReference) {
  // Round-major CSR kernels and the lane-major strips of the implicit
  // substrates, with visit counters, simple and lazy.
  for (const double laziness : {0.0, 0.3}) {
    SCOPED_TRACE(laziness);
    const std::vector<Vertex> starts = {0, 5, 9, 9, 2, 7};
    for (const auto& [name, g] : test_instances()) {
      SCOPED_TRACE(name);
      WalkEngine engine(g);
      expect_steps_match_reference(engine, g, starts, 150, laziness);
    }
    {
      const CycleSubstrate cycle(64);
      WalkEngineT<CycleSubstrate> engine(cycle);
      expect_steps_match_reference(engine, cycle, starts, 150, laziness);
    }
    {
      const HypercubeSubstrate cube(6);
      WalkEngineT<HypercubeSubstrate> engine(cube);
      expect_steps_match_reference(engine, cube, starts, 150, laziness);
    }
  }
}

TEST(WalkEngine, StepCapTruncates) {
  const Graph g = make_cycle(1024);  // cover needs ~n^2/2 steps, cap first
  WalkEngine engine(g);
  const Vertex starts[1] = {0};
  CoverOptions options;
  options.step_cap = 10;
  Rng rng(1);
  engine.reset(starts);
  const CoverSample sample = engine.run_until_visited(g.num_vertices(), rng, options);
  EXPECT_FALSE(sample.covered);
  EXPECT_EQ(sample.steps, 10u);

  // A zero cap runs no rounds at all.
  Rng rng2(1);
  options.step_cap = 0;
  engine.reset(starts);
  const CoverSample none = engine.run_until_visited(g.num_vertices(), rng2, options);
  EXPECT_FALSE(none.covered);
  EXPECT_EQ(none.steps, 0u);
  EXPECT_EQ(rng2.state(), Rng(1).state());  // no draws consumed
}

TEST(WalkEngine, AlreadyCoveredStartsAgreeAcrossK) {
  // target <= #distinct starts: covered at t=0 with zero steps and zero RNG
  // draws, for k = 1 and k > 1 alike.
  const Graph g = make_complete(8);
  WalkEngine engine(g);
  for (unsigned k : {1u, 5u}) {
    const std::vector<Vertex> starts(k, 3);
    Rng rng(42);
    engine.reset(starts);
    const CoverSample sample = engine.run_until_visited(1, rng);
    EXPECT_TRUE(sample.covered) << "k=" << k;
    EXPECT_EQ(sample.steps, 0u) << "k=" << k;
    EXPECT_EQ(rng.state(), Rng(42).state()) << "k=" << k;
  }
}

TEST(WalkEngine, RunForStepsMatchesRoundGranularity) {
  const Graph g = make_grid_2d(8);
  const std::vector<Vertex> starts = {0, 5, 9};
  // Advancing in two chunks must equal one combined run (same RNG stream).
  WalkEngine a(g);
  WalkEngine b(g);
  Rng rng_a(7);
  Rng rng_b(7);
  a.reset(starts);
  a.run_for_steps(10, rng_a);
  a.run_for_steps(6, rng_a);
  b.reset(starts);
  b.run_for_steps(16, rng_b);
  EXPECT_EQ(rng_a.state(), rng_b.state());
  ASSERT_EQ(a.tokens().size(), b.tokens().size());
  for (std::size_t i = 0; i < a.tokens().size(); ++i) {
    EXPECT_EQ(a.tokens()[i], b.tokens()[i]);
  }
  EXPECT_EQ(a.num_visited(), b.num_visited());
}

TEST(WalkEngine, VisitCountsSumToTokenSteps) {
  const Graph g = make_cycle(32);
  WalkEngine engine(g);
  const std::vector<Vertex> starts = {0, 16};
  engine.reset(starts);
  std::vector<std::uint64_t> counts(g.num_vertices(), 0);
  Rng rng(11);
  engine.run_for_steps(100, rng, 0.0, counts.data());
  std::uint64_t total = 0;
  for (std::uint64_t c : counts) total += c;
  EXPECT_EQ(total, 200u);  // 2 tokens x 100 rounds
}

TEST(WalkEngine, ValidatesArguments) {
  const Graph g = make_cycle(8);
  WalkEngine engine(g);
  // Running a never-reset engine must throw, not spin forever on zero
  // tokens.
  {
    Rng rng(3);
    WalkEngine unseeded(g);
    EXPECT_THROW(unseeded.run_until_visited(1, rng), std::invalid_argument);
    EXPECT_THROW(unseeded.run_for_steps(1, rng), std::invalid_argument);
  }
  EXPECT_THROW(engine.reset({}), std::invalid_argument);
  const Vertex bad[1] = {8};
  EXPECT_THROW(engine.reset(bad), std::invalid_argument);

  const Vertex ok[1] = {0};
  engine.reset(ok);
  Rng rng(1);
  CoverOptions options;
  options.laziness = 1.0;
  EXPECT_THROW(engine.run_until_visited(g.num_vertices(), rng, options),
               std::invalid_argument);
  EXPECT_THROW(engine.run_for_steps(1, rng, -0.1), std::invalid_argument);
}

TEST(WalkEngine, CsrSubstrateInstantiationIsTheGraphEngine) {
  // WalkEngine IS WalkEngineT<CsrSubstrate>: a bare template instantiation
  // over the wrapped CSR arrays must consume the same draws and sample the
  // same cover times as the lane reference over the Graph.
  for (const auto& [name, g] : test_instances()) {
    SCOPED_TRACE(name);
    WalkEngineT<CsrSubstrate> substrate_engine{CsrSubstrate(g)};
    expect_matches_reference(substrate_engine, g, std::vector<Vertex>(3, 0),
                             CoverOptions{}, 0xabcULL, 12);
  }
}

TEST(WalkEngine, SubstrateTracksLiveCsrArrays) {
  const Graph a = make_cycle(16);
  const Graph b = make_cycle(16);  // same shape, different arrays
  WalkEngine engine(a);
  EXPECT_TRUE(engine.substrate().reads_arrays_of(a));
  EXPECT_FALSE(engine.substrate().reads_arrays_of(b));

  // reads_arrays_of is a pure query: an unwalkable graph yields false, it
  // does not throw (only *binding* to such a graph does).
  GraphBuilder builder(3);
  builder.add_edge(0, 1);  // vertex 2 isolated
  const Graph unwalkable = builder.build();
  EXPECT_FALSE(engine.substrate().reads_arrays_of(unwalkable));
}

TEST(CoverSamplers, InterleavedGraphsStayDeterministic) {
  // The free samplers reuse a per-thread engine; alternating between two
  // graphs must rebind correctly and reproduce the single-graph sequences.
  const Graph a = make_cycle(32);
  const Graph b = make_grid_2d(6);
  std::vector<std::uint64_t> lone_a, lone_b;
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    Rng rng = make_trial_rng(1, trial);
    lone_a.push_back(sample_cover_time(a, 0, rng).steps);
  }
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    Rng rng = make_trial_rng(2, trial);
    lone_b.push_back(sample_k_cover_time(b, 0, 3, rng).steps);
  }
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    Rng rng_a = make_trial_rng(1, trial);
    EXPECT_EQ(sample_cover_time(a, 0, rng_a).steps, lone_a[trial]);
    Rng rng_b = make_trial_rng(2, trial);
    EXPECT_EQ(sample_k_cover_time(b, 0, 3, rng_b).steps, lone_b[trial]);
  }
}

/// What a cover run leaves behind in an engine: its tokens and visited set,
/// before and after a follow-up run_for_steps burst (which reads the lane
/// RNG states the cover run left).
struct EngineState {
  std::vector<Vertex> tokens;
  std::vector<bool> visited;
  std::vector<Vertex> tokens_after_burst;
  std::vector<bool> visited_after_burst;
};

EngineState capture_with_burst(WalkEngine& engine, const Graph& g) {
  const auto visited_set = [&] {
    std::vector<bool> bits(g.num_vertices());
    for (Vertex v = 0; v < g.num_vertices(); ++v) bits[v] = engine.visited(v);
    return bits;
  };
  EngineState state;
  state.tokens.assign(engine.tokens().begin(), engine.tokens().end());
  state.visited = visited_set();
  Rng unused(0);  // lanes are already seeded; the burst draws nothing here
  engine.run_for_steps(17, unused);
  state.tokens_after_burst.assign(engine.tokens().begin(),
                                  engine.tokens().end());
  state.visited_after_burst = visited_set();
  return state;
}

TEST(WalkEngine, ShardCountAndThreadCountAreInvisible) {
  // Determinism contract v3: for a fixed seed, the sharded round driver
  // must be BIT-identical to the serial lane path — same steps, same
  // visited count, same visited set, same tokens and lane streams left
  // behind — for every shard cap (32 exceeds k), with and without a
  // worker team. ThreadPool(2) makes a team of 3, which splits 16 lanes
  // 5/5/6 and 13 lanes 4/4/5.
  constexpr std::uint64_t kMasterSeed = 0xc3ULL;
  ThreadPool pool1(1);
  ThreadPool pool2(2);
  ThreadPool pool3(3);
  for (const auto& [name, g] : test_instances()) {
    WalkEngine serial(g);
    WalkEngine sharded(g);
    std::vector<Vertex> spread(13);
    for (std::size_t i = 0; i < spread.size(); ++i) {
      spread[i] = static_cast<Vertex>(i * 7 % g.num_vertices());
    }
    const auto target = static_cast<Vertex>(g.num_vertices());
    for (const std::vector<Vertex>& starts :
         {std::vector<Vertex>(16, 0), spread}) {
      for (std::uint64_t trial = 0; trial < 8; ++trial) {
        Rng ref_rng = make_trial_rng(kMasterSeed, trial);
        serial.reset(starts);
        const CoverSample expected = serial.run_until_visited(target, ref_rng);
        const Vertex expected_visited = serial.num_visited();
        const EngineState expected_state = capture_with_burst(serial, g);
        for (const unsigned shards : {1u, 2u, 8u, 32u}) {
          for (ThreadPool* pool :
               {(ThreadPool*)nullptr, &pool1, &pool2, &pool3}) {
            SCOPED_TRACE(::testing::Message()
                         << name << " k=" << starts.size()
                         << " trial=" << trial << " shards=" << shards
                         << " executors="
                         << (pool != nullptr ? pool->size() + 1 : 1));
            CoverOptions opt;
            opt.lane_shards = shards;
            opt.shard_pool = pool;
            Rng rng = make_trial_rng(kMasterSeed, trial);
            sharded.reset(starts);
            const CoverSample actual =
                sharded.run_until_visited(target, rng, opt);
            ASSERT_EQ(expected.steps, actual.steps);
            ASSERT_EQ(expected.covered, actual.covered);
            ASSERT_EQ(expected_visited, sharded.num_visited());
            const EngineState state = capture_with_burst(sharded, g);
            ASSERT_EQ(expected_state.tokens, state.tokens);
            ASSERT_EQ(expected_state.visited, state.visited);
            ASSERT_EQ(expected_state.tokens_after_burst,
                      state.tokens_after_burst);
            ASSERT_EQ(expected_state.visited_after_burst,
                      state.visited_after_burst);
          }
        }
      }
    }
  }
}

TEST(WalkEngine, ShardedPartialTargetsMatchSerial) {
  // Partial-cover targets exercise the merge-on-demand bound: the sharded
  // driver must stop at exactly the serial crossing round, never one late
  // (a late stop means the cover decision diverged or the bound missed).
  const Graph g = make_cycle(512);
  WalkEngine serial(g);
  WalkEngine sharded(g);
  ThreadPool pool(2);
  const std::vector<Vertex> starts(8, 0);
  for (const Vertex target : {Vertex{9}, Vertex{64}, Vertex{256}}) {
    for (std::uint64_t trial = 0; trial < 12; ++trial) {
      Rng ref_rng = make_trial_rng(0xeeULL, trial);
      serial.reset(starts);
      const CoverSample expected = serial.run_until_visited(target, ref_rng);
      CoverOptions opt;
      opt.lane_shards = 4;
      opt.shard_pool = &pool;
      Rng rng = make_trial_rng(0xeeULL, trial);
      sharded.reset(starts);
      const CoverSample actual = sharded.run_until_visited(target, rng, opt);
      ASSERT_EQ(expected.steps, actual.steps)
          << "target=" << target << " trial=" << trial;
      ASSERT_EQ(serial.num_visited(), sharded.num_visited());
    }
  }
}

TEST(WalkEngine, TargetResetLeavesOnlyTargetsUnvisited) {
  // n = 70 leaves 6 live bits in the last word; the bits past n stay clear.
  const Graph g = make_cycle(70);
  WalkEngine engine(g);
  const std::vector<Vertex> starts = {0};
  const std::vector<Vertex> targets = {3, 69, 3};
  engine.reset(starts, targets);
  EXPECT_EQ(engine.num_visited(), 68u);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(engine.visited(v), v != 3 && v != 69) << "v=" << v;
  }
  const std::vector<Vertex> on_target = {69, 1};
  engine.reset(on_target, targets);
  EXPECT_EQ(engine.num_visited(), 69u);
  const std::vector<Vertex> outside = {70};
  EXPECT_THROW(engine.reset(starts, outside), std::invalid_argument);
  // A plain reset forgets the target fill.
  engine.reset(starts);
  EXPECT_EQ(engine.num_visited(), 1u);
}

TEST(WalkEngine, ShardedHittingMatchesSerial) {
  // The sharded driver popcounts the pre-filled words, so a stray bit past
  // n (101 = one word plus 37 bits) would move its crossing round.
  const Graph g = make_cycle(101);
  ThreadPool pool(2);
  const std::vector<Vertex> starts(4, 0);
  const std::vector<Vertex> targets = {40, 60};
  CoverOptions opt;
  opt.lane_shards = 2;
  opt.shard_pool = &pool;
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    Rng ref_rng = make_trial_rng(0xabULL, trial);
    const CoverSample expected =
        sample_hitting_time(g, starts, targets, ref_rng);
    Rng rng = make_trial_rng(0xabULL, trial);
    const CoverSample actual = sample_hitting_time(g, starts, targets, rng, opt);
    ASSERT_TRUE(expected.covered);
    ASSERT_EQ(expected.steps, actual.steps) << "trial=" << trial;
  }
}

TEST(WalkEngine, ShardedStepCapTruncatesLikeSerial) {
  const Graph g = make_cycle(1024);
  ThreadPool pool(2);
  WalkEngine engine(g);
  const std::vector<Vertex> starts(4, 0);
  CoverOptions opt;
  opt.step_cap = 10;
  opt.lane_shards = 2;
  opt.shard_pool = &pool;
  Rng rng(5);
  engine.reset(starts);
  const CoverSample sample =
      engine.run_until_visited(g.num_vertices(), rng, opt);
  EXPECT_FALSE(sample.covered);
  EXPECT_EQ(sample.steps, 10u);
  // The capped run's visited set is still exact (the final round merges).
  Vertex bits = 0;
  for (Vertex v = 0; v < g.num_vertices(); ++v) bits += engine.visited(v);
  EXPECT_EQ(bits, engine.num_visited());
}

TEST(WalkEngine, RejectsImpossibleTarget) {
  const Graph g = make_cycle(8);
  WalkEngine engine(g);
  const Vertex starts[1] = {0};
  engine.reset(starts);
  Rng rng(9);
  EXPECT_THROW(engine.run_until_visited(9, rng), std::invalid_argument);
}

TEST(WalkEngine, RejectsUnwalkableGraph) {
  GraphBuilder builder(3);
  builder.add_edge(0, 1);  // vertex 2 isolated
  const Graph g = builder.build();
  EXPECT_THROW(WalkEngine{g}, std::invalid_argument);
}

}  // namespace
}  // namespace manywalks
