// P2 — google-benchmark suite for the substrates: the walk engine over CSR
// vs implicit substrates (steps/s per family — the perf-smoke CI artifact),
// generator throughput, BFS/property scans, spectral iteration, exact
// hitting-time solves, and mixing-time evolution. Establishes where the
// exact/spectral tools stop being interactive and what the implicit layer
// buys at scale.
#include <benchmark/benchmark.h>

#include <vector>

#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "graph/substrate.hpp"
#include "linalg/markov.hpp"
#include "linalg/spectral.hpp"
#include "theory/exact.hpp"
#include "walk/engine.hpp"

namespace {

using namespace manywalks;

// ---------------------------------------------------------------------------
// Walk-engine steps/s: the same 16-token k-walk advanced by the CSR-bound
// engine and by the implicit substrate, per family. items/second ==
// token-steps/second, so the BM_Walk* rows are directly comparable — these
// are the rows the CI perf-smoke job archives as BENCH_substrate.json.
// ---------------------------------------------------------------------------
constexpr unsigned kWalkTokens = 16;
constexpr std::uint64_t kWalkRounds = 4096;

template <class Engine>
void run_walk_rounds(benchmark::State& state, Engine& engine) {
  const std::vector<Vertex> starts(kWalkTokens, 0);
  Rng rng(1);
  engine.reset(starts);
  for (auto _ : state) {
    engine.run_for_steps(kWalkRounds, rng);
    benchmark::DoNotOptimize(engine.num_visited());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kWalkRounds * kWalkTokens);
}

void BM_WalkCsrCycle(benchmark::State& state) {
  static const Graph g = make_cycle(1 << 20);
  WalkEngine engine(g);
  run_walk_rounds(state, engine);
}
void BM_WalkImplicitCycle(benchmark::State& state) {
  WalkEngineT<CycleSubstrate> engine{CycleSubstrate(1 << 20)};
  run_walk_rounds(state, engine);
}
void BM_WalkCsrTorus(benchmark::State& state) {
  static const Graph g = make_grid_2d(1024);
  WalkEngine engine(g);
  run_walk_rounds(state, engine);
}
void BM_WalkImplicitTorus(benchmark::State& state) {
  WalkEngineT<TorusSubstrate> engine{TorusSubstrate(1024)};
  run_walk_rounds(state, engine);
}
void BM_WalkCsrHypercube(benchmark::State& state) {
  static const Graph g = make_hypercube(20);
  WalkEngine engine(g);
  run_walk_rounds(state, engine);
}
void BM_WalkImplicitHypercube(benchmark::State& state) {
  WalkEngineT<HypercubeSubstrate> engine{HypercubeSubstrate(20)};
  run_walk_rounds(state, engine);
}
void BM_WalkCsrComplete(benchmark::State& state) {
  static const Graph g = make_complete(4096);
  WalkEngine engine(g);
  run_walk_rounds(state, engine);
}
void BM_WalkImplicitComplete(benchmark::State& state) {
  WalkEngineT<CompleteSubstrate> engine{CompleteSubstrate(4096)};
  run_walk_rounds(state, engine);
}
/// The scale no CSR reaches: a 2^27-vertex implicit cycle (an explicit
/// graph would be ~2.1 GiB; the engine allocates a 16 MiB tracker).
void BM_WalkImplicitGiantCycle(benchmark::State& state) {
  WalkEngineT<CycleSubstrate> engine{CycleSubstrate(1u << 27)};
  run_walk_rounds(state, engine);
}

/// The 10^6-vertex 8-regular expander whose CSR arrays dwarf L2 — the
/// workload the lane kernels' prefetch pipeline exists for.
void BM_WalkCsrExpander(benchmark::State& state) {
  static const Graph g = make_margulis_expander(1024);
  WalkEngine engine(g);
  run_walk_rounds(state, engine);
}

BENCHMARK(BM_WalkCsrCycle);
BENCHMARK(BM_WalkImplicitCycle);
BENCHMARK(BM_WalkCsrTorus);
BENCHMARK(BM_WalkImplicitTorus);
BENCHMARK(BM_WalkCsrHypercube);
BENCHMARK(BM_WalkImplicitHypercube);
BENCHMARK(BM_WalkCsrComplete);
BENCHMARK(BM_WalkImplicitComplete);
BENCHMARK(BM_WalkImplicitGiantCycle);
BENCHMARK(BM_WalkCsrExpander);

void BM_GenCycle(benchmark::State& state) {
  const auto n = static_cast<Vertex>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_cycle(n).num_arcs());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_GenCycle)->Arg(1 << 12)->Arg(1 << 16);

void BM_GenGrid2d(benchmark::State& state) {
  const auto side = static_cast<Vertex>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_grid_2d(side).num_arcs());
  }
}
BENCHMARK(BM_GenGrid2d)->Arg(64)->Arg(256);

void BM_GenMargulis(benchmark::State& state) {
  const auto side = static_cast<Vertex>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_margulis_expander(side).num_arcs());
  }
}
BENCHMARK(BM_GenMargulis)->Arg(32)->Arg(128);

void BM_GenErdosRenyi(benchmark::State& state) {
  const auto n = static_cast<Vertex>(state.range(0));
  const double p = 8.0 / n;
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_erdos_renyi(n, p, rng).num_arcs());
  }
}
BENCHMARK(BM_GenErdosRenyi)->Arg(1 << 12)->Arg(1 << 15);

void BM_GenRandomRegular(benchmark::State& state) {
  const auto n = static_cast<Vertex>(state.range(0));
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_random_regular(n, 8, rng).num_arcs());
  }
}
BENCHMARK(BM_GenRandomRegular)->Arg(1 << 10)->Arg(1 << 12);

void BM_GenRandomGeometric(benchmark::State& state) {
  const auto n = static_cast<Vertex>(state.range(0));
  Rng rng(3);
  const double r = random_geometric_connectivity_radius(n, 2.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(make_random_geometric(n, r, rng).num_arcs());
  }
}
BENCHMARK(BM_GenRandomGeometric)->Arg(1 << 12)->Arg(1 << 14);

void BM_Bfs(benchmark::State& state) {
  const Graph g = make_grid_2d(static_cast<Vertex>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bfs_distances(g, 0).size());
  }
}
BENCHMARK(BM_Bfs)->Arg(64)->Arg(256);

void BM_SecondEigenvalue(benchmark::State& state) {
  const Graph g = make_margulis_expander(static_cast<Vertex>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(second_eigenvalue(g).lambda_norm);
  }
}
BENCHMARK(BM_SecondEigenvalue)->Arg(16)->Arg(48);

void BM_MixingTimeExpander(benchmark::State& state) {
  const Graph g = make_margulis_expander(static_cast<Vertex>(state.range(0)));
  MixingOptions options;
  options.sources = {0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(mixing_time(g, options).time);
  }
}
BENCHMARK(BM_MixingTimeExpander)->Arg(16)->Arg(48);

void BM_HittingTimesToTarget(benchmark::State& state) {
  const Graph g = make_grid_2d(static_cast<Vertex>(state.range(0)),
                               GridTopology::kTorus);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hitting_times_to(g, 0).size());
  }
}
BENCHMARK(BM_HittingTimesToTarget)->Arg(9)->Arg(15);

void BM_HittingTimeMatrix(benchmark::State& state) {
  const Graph g = make_grid_2d(static_cast<Vertex>(state.range(0)),
                               GridTopology::kTorus);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hitting_time_matrix(g).rows());
  }
}
BENCHMARK(BM_HittingTimeMatrix)->Arg(9)->Arg(15);

void BM_ExactCoverSubsetDp(benchmark::State& state) {
  const Graph g = make_cycle(static_cast<Vertex>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(exact_cover_time(g, 0));
  }
}
BENCHMARK(BM_ExactCoverSubsetDp)->Arg(10)->Arg(14);

}  // namespace
