// Independent oracle for the walk engine's lane kernels (determinism
// contract v2), shared by the engine and substrate suites.
//
// The oracle is the naive per-lane loop, with none of the kernels'
// pipelining, draw hoisting, lane-major strips or sharding: one lane master
// off the caller's stream, lane i walks on make_lane_rng(master, i), a lazy
// step draws uniform01 first, and a moving step lands on
// g.neighbor(v, lane_neighbor_index(lane, degree(v))). G is a Graph or any
// substrate (both expose num_vertices/degree/neighbor). Its visited set is
// a plain byte per vertex, independent of the engine's bitmap trackers.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"
#include "walk/cover_types.hpp"

namespace manywalks {

template <class G>
struct ReferenceLanes {
  ReferenceLanes(const G& graph, std::span<const Vertex> starts)
      : g(graph),
        tokens(starts.begin(), starts.end()),
        visited(graph.num_vertices(), 0) {
    for (Vertex s : tokens) visit(s);
  }

  void visit(Vertex v) {
    if (visited[v] != 0) return;
    visited[v] = 1;
    ++num_visited;
  }

  /// Draws the lane master on the first call only, like the engine.
  void seed(Rng& rng) {
    if (!lanes.empty()) return;
    const std::uint64_t master = rng.next();
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      lanes.push_back(make_lane_rng(master, i));
    }
  }

  /// One round: every lane takes one step, in lane order.
  void round(double laziness, std::uint64_t* counts = nullptr) {
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      Rng& lane = lanes[i];
      const bool stay = laziness > 0.0 && lane.uniform01() < laziness;
      if (!stay) {
        const Vertex v = tokens[i];
        const auto degree = static_cast<std::uint32_t>(g.degree(v));
        tokens[i] = g.neighbor(v, lane_neighbor_index(lane, degree));
      }
      visit(tokens[i]);
      if (counts != nullptr) ++counts[tokens[i]];
    }
  }

  const G& g;
  std::vector<Vertex> tokens;
  std::vector<char> visited;
  Vertex num_visited = 0;
  std::vector<Rng> lanes;
};

/// The oracle's run_until_visited: rounds until `target` distinct vertices
/// are visited or options.step_cap rounds have run.
template <class G>
CoverSample reference_cover(const G& g, std::span<const Vertex> starts,
                            Vertex target, Rng& rng,
                            const CoverOptions& options = {}) {
  ReferenceLanes<G> walk(g, starts);
  CoverSample sample;
  if (walk.num_visited >= target) {
    sample.covered = true;
    return sample;
  }
  if (options.step_cap == 0) return sample;
  walk.seed(rng);
  std::uint64_t t = 0;
  while (t < options.step_cap) {
    ++t;
    walk.round(options.laziness);
    if (walk.num_visited >= target) {
      sample.steps = t;
      sample.covered = true;
      return sample;
    }
  }
  sample.steps = options.step_cap;
  return sample;
}

}  // namespace manywalks
