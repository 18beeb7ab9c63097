// Random graph families: Erdős–Rényi, random regular (Steger–Wormald
// pairing), random geometric.
#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/generators.hpp"
#include "graph/properties.hpp"
#include "util/check.hpp"

namespace manywalks {

Graph make_erdos_renyi(Vertex n, double p, Rng& rng) {
  MW_REQUIRE(n >= 2, "G(n,p) needs n >= 2");
  MW_REQUIRE(p >= 0.0 && p <= 1.0, "G(n,p) needs p in [0,1]");
  GraphBuilder b(n);
  if (p == 0.0) return b.build();
  if (p == 1.0) return make_complete(n);

  // Geometric skipping over the lexicographic enumeration of pairs (u < v):
  // instead of flipping a coin per pair, jump ahead by Geometric(p) pairs.
  const double log1mp = std::log1p(-p);
  const std::uint64_t total_pairs =
      static_cast<std::uint64_t>(n) * (n - 1) / 2;
  // Current linear pair index in [0, total_pairs).
  std::uint64_t pos = 0;
  bool first = true;
  for (;;) {
    // Draw the gap to the next edge: floor(log(U)/log(1-p)) (+1 after the
    // first edge so we move strictly forward).
    double u01 = rng.uniform01();
    while (u01 <= 0.0) u01 = rng.uniform01();
    const double skip = std::floor(std::log(u01) / log1mp);
    MW_REQUIRE(skip >= 0.0, "geometric skip underflow");
    const auto gap = skip >= 1e18 ? static_cast<std::uint64_t>(1) << 62
                                  : static_cast<std::uint64_t>(skip);
    pos += gap + (first ? 0 : 1);
    first = false;
    if (pos >= total_pairs) break;

    // Invert the linear index into (u, v) with u < v. Row u starts at
    // offset(u) = u*n - u*(u+1)/2. Solve by a descending scan amortized by
    // the monotonicity of pos across iterations — but a direct closed form
    // is simpler and O(1) via the quadratic formula.
    const double nn = static_cast<double>(n);
    const double discriminant =
        (2.0 * nn - 1.0) * (2.0 * nn - 1.0) - 8.0 * static_cast<double>(pos);
    auto u = static_cast<std::uint64_t>(
        std::floor((2.0 * nn - 1.0 - std::sqrt(discriminant)) / 2.0));
    // Guard against floating point rounding at row boundaries.
    auto row_start = [n](std::uint64_t row) {
      return row * n - row * (row + 1) / 2;
    };
    while (u > 0 && row_start(u) > pos) --u;
    while (row_start(u + 1) <= pos) ++u;
    const std::uint64_t v = u + 1 + (pos - row_start(u));
    MW_ASSERT(v < n);
    b.add_edge(static_cast<Vertex>(u), static_cast<Vertex>(v));
  }
  return b.build();
}

Graph make_erdos_renyi_connected(Vertex n, double p, Rng& rng,
                                 unsigned max_attempts) {
  MW_REQUIRE(max_attempts >= 1, "need at least one attempt");
  Graph last;
  for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
    last = make_erdos_renyi(n, p, rng);
    if (is_connected(last)) return last;
  }
  // Diagnose from the last draw: how fragmented it actually was tells the
  // caller whether p is hopeless or merely unlucky.
  const ComponentDecomposition components = connected_components(last);
  MW_REQUIRE(false, "G(" << n << "," << p << ") not connected after "
                         << max_attempts << " attempts (last draw: "
                         << components.num_components
                         << " components, largest "
                         << components.sizes[components.largest] << " of " << n
                         << " vertices); raise p above ln(n)/n");
  return Graph{};  // unreachable
}

Graph make_random_regular(Vertex n, Vertex degree, Rng& rng,
                          unsigned max_attempts) {
  MW_REQUIRE(degree >= 1 && degree < n,
             "random regular graph needs 1 <= d < n");
  MW_REQUIRE((static_cast<std::uint64_t>(n) * degree) % 2 == 0,
             "n*d must be even");
  const std::uint64_t num_stubs = static_cast<std::uint64_t>(n) * degree;
  // Stub indices are drawn with the 32-bit uniform_below.
  MW_REQUIRE(num_stubs < (std::uint64_t{1} << 32),
             "random regular graph needs n*d < 2^32, got n="
                 << n << ", d=" << degree);

  // Row v of the CSR is targets[v*d, v*d + d); fill[v] counts its entries
  // so far. The pairing's duplicate test scans u's partly filled row.
  ArcVector targets(num_stubs);
  std::vector<Vertex> fill(n);
  std::vector<Vertex> stubs;
  stubs.reserve(num_stubs);
  const auto row = [&](Vertex v) {
    return targets.data() + std::uint64_t{v} * degree;
  };
  for (unsigned attempt = 0; attempt < max_attempts; ++attempt) {
    // Steger–Wormald pairing: repeatedly match two random free stubs,
    // rejecting loops and parallel edges. For d = O(n^(1/3)) this succeeds
    // with probability 1 - o(1) and is asymptotically uniform.
    stubs.clear();
    for (Vertex v = 0; v < n; ++v) {
      for (Vertex i = 0; i < degree; ++i) stubs.push_back(v);
    }
    std::fill(fill.begin(), fill.end(), Vertex{0});

    std::uint64_t consecutive_failures = 0;
    bool stuck = false;
    while (!stubs.empty()) {
      const auto size32 = static_cast<std::uint32_t>(stubs.size());
      const std::uint32_t i = rng.uniform_below(size32);
      std::uint32_t j = rng.uniform_below(size32);
      while (j == i) j = rng.uniform_below(size32);
      const Vertex u = stubs[i];
      const Vertex v = stubs[j];
      Vertex* const filled = row(u) + fill[u];
      if (u == v || std::find(row(u), filled, v) != filled) {
        // As the pool shrinks, valid pairs may vanish; bail out and restart
        // rather than looping forever.
        if (++consecutive_failures > 64 + 16 * stubs.size()) {
          stuck = true;
          break;
        }
        continue;
      }
      consecutive_failures = 0;
      row(u)[fill[u]++] = v;
      row(v)[fill[v]++] = u;
      // Remove both stubs by swap-with-back, larger index first so the
      // smaller index is still valid after the first pop.
      const std::uint32_t hi = std::max(i, j);
      const std::uint32_t lo = std::min(i, j);
      stubs[hi] = stubs.back();
      stubs.pop_back();
      stubs[lo] = stubs.back();
      stubs.pop_back();
    }
    if (stuck) continue;

    // Release the pairing's scratch before from_csr allocates its own.
    stubs = std::vector<Vertex>();
    fill = std::vector<Vertex>();
    std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1);
    for (Vertex v = 0; v < n; ++v) {
      Vertex* const begin = row(v);
      std::sort(begin, begin + degree);
      // The pairing never accepts a loop or a repeated pair; check it.
      for (Vertex i = 0; i < degree; ++i) {
        MW_REQUIRE(begin[i] != v && (i == 0 || begin[i - 1] != begin[i]),
                   "random regular pairing left a loop or parallel edge at "
                       << v);
      }
      offsets[static_cast<std::size_t>(v) + 1] =
          (std::uint64_t{v} + 1) * degree;
    }
    return Graph::from_csr(std::move(offsets), std::move(targets),
                           /*validate=*/true);
  }
  MW_REQUIRE(false, "random regular pairing failed after "
                        << max_attempts << " attempts (n=" << n
                        << ", d=" << degree << ")");
  return Graph{};  // unreachable
}

double random_geometric_connectivity_radius(Vertex n, double c) {
  MW_REQUIRE(n >= 2, "need n >= 2");
  return std::sqrt(c * std::log(static_cast<double>(n)) /
                   static_cast<double>(n));
}

Graph make_random_geometric(Vertex n, double radius, Rng& rng) {
  MW_REQUIRE(n >= 2, "RGG needs n >= 2");
  MW_REQUIRE(radius > 0.0 && radius <= std::sqrt(2.0),
             "RGG radius must be in (0, sqrt(2)]");
  std::vector<double> xs(n), ys(n);
  for (Vertex v = 0; v < n; ++v) {
    xs[v] = rng.uniform01();
    ys[v] = rng.uniform01();
  }

  // Bucket the unit square into cells of side >= radius; only points in the
  // 3x3 cell neighborhood can be within distance radius.
  const auto cells =
      static_cast<std::uint32_t>(std::max(1.0, std::floor(1.0 / radius)));
  std::vector<std::vector<Vertex>> bucket(
      static_cast<std::size_t>(cells) * cells);
  const auto cell_of = [&](double coord) {
    auto c = static_cast<std::uint32_t>(coord * cells);
    return std::min(c, cells - 1);
  };
  for (Vertex v = 0; v < n; ++v) {
    bucket[static_cast<std::size_t>(cell_of(xs[v])) * cells + cell_of(ys[v])]
        .push_back(v);
  }

  GraphBuilder b(n);
  const double r2 = radius * radius;
  for (Vertex v = 0; v < n; ++v) {
    const std::uint32_t cx = cell_of(xs[v]);
    const std::uint32_t cy = cell_of(ys[v]);
    for (int dx = -1; dx <= 1; ++dx) {
      for (int dy = -1; dy <= 1; ++dy) {
        const std::int64_t nx = static_cast<std::int64_t>(cx) + dx;
        const std::int64_t ny = static_cast<std::int64_t>(cy) + dy;
        if (nx < 0 || ny < 0 || nx >= cells || ny >= cells) continue;
        for (Vertex u : bucket[static_cast<std::size_t>(nx) * cells +
                               static_cast<std::size_t>(ny)]) {
          if (u <= v) continue;  // add each pair once
          const double ddx = xs[u] - xs[v];
          const double ddy = ys[u] - ys[v];
          if (ddx * ddx + ddy * ddy <= r2) b.add_edge(v, u);
        }
      }
    }
  }
  return b.build();
}

}  // namespace manywalks
