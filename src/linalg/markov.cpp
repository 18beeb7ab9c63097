#include "linalg/markov.hpp"

#include <cmath>

#include "util/check.hpp"

namespace manywalks {

std::vector<double> stationary_distribution(const Graph& g) {
  const Vertex n = g.num_vertices();
  MW_REQUIRE(g.num_arcs() > 0, "stationary distribution needs edges");
  std::vector<double> pi(n);
  const double total = static_cast<double>(g.num_arcs());
  for (Vertex v = 0; v < n; ++v) {
    pi[v] = static_cast<double>(g.degree(v)) / total;
  }
  return pi;
}

namespace {

/// evolve_distribution with caller-owned scratch for the per-vertex share
/// in(u)/deg(u), computed once per step instead of once per arc.
void evolve_with_scratch(const Graph& g, const std::vector<double>& in,
                         std::vector<double>& out, double laziness,
                         std::vector<double>& share) {
  const Vertex n = g.num_vertices();
  MW_REQUIRE(in.size() == n, "distribution size mismatch");
  MW_REQUIRE(&in != &out, "evolve_distribution needs distinct buffers");
  MW_REQUIRE(laziness >= 0.0 && laziness < 1.0, "laziness must be in [0,1)");
  share.resize(n);
  for (Vertex u = 0; u < n; ++u) {
    share[u] = in[u] / static_cast<double>(g.degree(u));
  }
  out.assign(n, 0.0);
  // Push mass along arcs: each arc u->v carries in(u)/deg(u). Because the
  // arc multiset is symmetric we can gather over v's rows instead, which is
  // cache-friendlier: out(v) += share(u) for every arc (v,u).
  for (Vertex v = 0; v < n; ++v) {
    double acc = 0.0;
    for (Vertex u : g.neighbors(v)) acc += share[u];
    out[v] = acc;
  }
  if (laziness > 0.0) {
    for (Vertex v = 0; v < n; ++v) {
      out[v] = laziness * in[v] + (1.0 - laziness) * out[v];
    }
  }
}

}  // namespace

void evolve_distribution(const Graph& g, const std::vector<double>& in,
                         std::vector<double>& out, double laziness) {
  std::vector<double> share;
  evolve_with_scratch(g, in, out, laziness, share);
}

double l1_distance(const std::vector<double>& a, const std::vector<double>& b) {
  MW_REQUIRE(a.size() == b.size(), "l1_distance size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += std::abs(a[i] - b[i]);
  return acc;
}

double total_variation(const std::vector<double>& a,
                       const std::vector<double>& b) {
  return 0.5 * l1_distance(a, b);
}

DenseMatrix transition_matrix_dense(const Graph& g, double laziness) {
  const Vertex n = g.num_vertices();
  MW_REQUIRE(laziness >= 0.0 && laziness < 1.0, "laziness must be in [0,1)");
  DenseMatrix p(n, n, 0.0);
  for (Vertex v = 0; v < n; ++v) {
    MW_REQUIRE(g.degree(v) > 0, "isolated vertex " << v << " has no transitions");
    const double w = (1.0 - laziness) / static_cast<double>(g.degree(v));
    for (Vertex u : g.neighbors(v)) p.at(v, u) += w;
    p.at(v, v) += laziness;
  }
  return p;
}

MixingResult mixing_time(const Graph& g, const MixingOptions& options) {
  const Vertex n = g.num_vertices();
  MW_REQUIRE(n >= 1 && g.num_arcs() > 0, "mixing_time needs a nonempty graph");
  const std::vector<double> pi = stationary_distribution(g);

  std::vector<Vertex> sources = options.sources;
  if (sources.empty()) {
    sources.resize(n);
    for (Vertex v = 0; v < n; ++v) sources[v] = v;
  }

  MixingResult result;
  result.converged = true;
  std::vector<double> current(n);
  std::vector<double> next(n);
  std::vector<double> share(n);
  for (Vertex source : sources) {
    MW_REQUIRE(source < n, "mixing source out of range");
    current.assign(n, 0.0);
    current[source] = 1.0;
    std::uint64_t t = 0;
    bool done = l1_distance(current, pi) < options.threshold;
    while (!done && t < options.max_steps) {
      evolve_with_scratch(g, current, next, options.laziness, share);
      current.swap(next);
      ++t;
      done = l1_distance(current, pi) < options.threshold;
    }
    if (!done) {
      result.converged = false;
      result.time = options.max_steps;
      result.worst_source = source;
      return result;
    }
    if (t >= result.time) {
      result.time = t;
      result.worst_source = source;
    }
  }
  return result;
}

}  // namespace manywalks
