// P2P search scenario (the paper's §1 motivation: querying/searching in
// peer-to-peer and sensor networks with random walks).
//
// A data item is replicated on a small fraction of the peers of an unstructured
// overlay (modeled as a random 8-regular graph — expander-like, as real
// overlays aim to be). A query is issued at one peer and forwarded as k
// independent random walks; the query latency is the number of parallel
// rounds until any walker lands on a replica. The example sweeps k and
// shows the near-linear latency reduction the paper predicts for expanders,
// and contrasts it with a ring overlay where k walkers barely help.
// The latency is the k-walk hitting time of the replica set
// (sample_hitting_time); with --replicas 1 it is the paper's hunting
// scenario of k hunters pursuing a prey that hides at a fixed vertex.
//
//   ./p2p_search [--peers 4096] [--replicas 16] [--trials 400]
#include <algorithm>
#include <cstdint>
#include <iostream>
#include <vector>

#include "graph/generators.hpp"
#include "mc/monte_carlo.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "walk/cover.hpp"

namespace {

using namespace manywalks;

McResult measure(const Graph& g, unsigned k, double replica_fraction,
                 std::uint64_t trials, std::uint64_t seed) {
  const Vertex n = g.num_vertices();
  // At least one replica, and at least one peer left to issue the query.
  const auto num_replicas = std::clamp<Vertex>(
      static_cast<Vertex>(replica_fraction * n), 1, n - 1);
  McOptions mc;
  mc.min_trials = trials;
  mc.max_trials = trials;
  mc.seed = seed;
  const CsrSubstrate substrate(g);
  CoverOptions cover;
  cover.step_cap = 100ULL * n;
  return run_monte_carlo(
      [&](std::uint64_t, Rng& rng) {
        // Fresh replica placement and query origin per trial.
        std::vector<Vertex> replicas;
        std::vector<bool> is_replica(n, false);
        while (replicas.size() < num_replicas) {
          const Vertex v = rng.uniform_below(n);
          if (!is_replica[v]) {
            is_replica[v] = true;
            replicas.push_back(v);
          }
        }
        Vertex origin = rng.uniform_below(n);
        while (is_replica[origin]) origin = rng.uniform_below(n);
        const std::vector<Vertex> walkers(k, origin);
        const CoverSample latency =
            sample_hitting_time(substrate, walkers, replicas, rng, cover);
        return TrialOutcome{static_cast<double>(latency.steps),
                            !latency.covered};
      },
      mc);
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t peers = 4096;
  std::uint64_t replicas = 16;
  std::uint64_t trials = 400;
  std::uint64_t seed = 7;

  ArgParser parser("p2p_search",
                   "k random-walk query latency in a P2P overlay");
  parser.add_option("peers", &peers, "number of peers")
      .add_option("replicas", &replicas, "replicas of the requested item")
      .add_option("trials", &trials, "queries per configuration")
      .add_option("seed", &seed, "random seed");
  if (!parser.parse(argc, argv)) return 1;

  Rng graph_rng(mix64(seed));
  const Graph overlay =
      make_random_regular(static_cast<Vertex>(peers), 8, graph_rng);
  const Graph ring = make_cycle(static_cast<Vertex>(peers));
  const double fraction =
      static_cast<double>(replicas) / static_cast<double>(peers);

  std::cout << "Overlay: " << describe(overlay) << ", item replicated on "
            << replicas << " peers\n\n";

  TextTable table("Query latency (rounds until a walker finds a replica)");
  table.add_column("k walkers")
      .add_column("expander overlay")
      .add_column("speed-up")
      .add_column("ring overlay")
      .add_column("speed-up");

  const std::vector<unsigned> ks = {1, 2, 4, 8, 16, 32};
  double base_expander = 0.0;
  double base_ring = 0.0;
  for (unsigned k : ks) {
    const McResult on_expander =
        measure(overlay, k, fraction, trials, mix64(seed + k));
    const McResult on_ring =
        measure(ring, k, fraction, trials, mix64(seed + 1000 + k));
    if (k == 1) {
      base_expander = on_expander.ci.mean;
      base_ring = on_ring.ci.mean;
    }
    table.begin_row()
        .cell(static_cast<std::uint64_t>(k))
        .cell(format_mean_pm(on_expander.ci.mean, on_expander.ci.half_width))
        .cell(format_double(base_expander / on_expander.ci.mean, 3))
        .cell(format_mean_pm(on_ring.ci.mean, on_ring.ci.half_width))
        .cell(format_double(base_ring / on_ring.ci.mean, 3));
  }
  std::cout << table
            << "\nExpected: near-linear speed-up on the expander overlay "
               "(Thm 18), only\nlogarithmic gains on the ring (Thm 6).\n";
  return 0;
}
