// Deterministic graph families (cycle, grids, hypercube, trees, barbells,
// Margulis expander).
#include "graph/generators.hpp"

#include <algorithm>
#include <cstdint>

#include "util/check.hpp"

namespace manywalks {

Graph make_cycle(Vertex n) {
  MW_REQUIRE(n >= 3, "cycle needs n >= 3, got " << n);
  GraphBuilder b(n);
  for (Vertex v = 0; v < n; ++v) b.add_edge(v, (v + 1) % n);
  return b.build();
}

Graph make_path(Vertex n) {
  MW_REQUIRE(n >= 2, "path needs n >= 2, got " << n);
  GraphBuilder b(n);
  for (Vertex v = 0; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

Graph make_complete(Vertex n, bool with_self_loops) {
  MW_REQUIRE(n >= 2, "complete graph needs n >= 2, got " << n);
  GraphBuilder b(n);
  for (Vertex u = 0; u < n; ++u) {
    if (with_self_loops) b.add_edge(u, u);
    for (Vertex v = u + 1; v < n; ++v) b.add_edge(u, v);
  }
  GraphBuilder::BuildOptions options;
  options.loops = with_self_loops ? GraphBuilder::LoopPolicy::kKeep
                                  : GraphBuilder::LoopPolicy::kReject;
  return b.build(options);
}

Graph make_complete_bipartite(Vertex a, Vertex b) {
  MW_REQUIRE(a >= 1 && b >= 1, "complete bipartite needs both sides nonempty");
  GraphBuilder builder(a + b);
  for (Vertex u = 0; u < a; ++u) {
    for (Vertex v = 0; v < b; ++v) builder.add_edge(u, a + v);
  }
  return builder.build();
}

Graph make_star(Vertex n) {
  MW_REQUIRE(n >= 2, "star needs n >= 2, got " << n);
  GraphBuilder b(n);
  for (Vertex v = 1; v < n; ++v) b.add_edge(0, v);
  return b.build();
}

Graph make_grid(const std::vector<Vertex>& dims, GridTopology topology) {
  MW_REQUIRE(!dims.empty(), "grid needs at least one dimension");
  std::uint64_t n64 = 1;
  for (Vertex len : dims) {
    MW_REQUIRE(len >= 1, "grid dimensions must be >= 1");
    n64 *= len;
    MW_REQUIRE(n64 < kInvalidVertex, "grid too large for 32-bit vertices");
  }
  const auto n = static_cast<Vertex>(n64);
  MW_REQUIRE(n >= 2, "grid needs at least 2 vertices");

  // Row-major strides: stride of the last dimension is 1.
  std::vector<std::uint64_t> stride(dims.size());
  std::uint64_t s = 1;
  for (std::size_t d = dims.size(); d-- > 0;) {
    stride[d] = s;
    s *= dims[d];
  }

  GraphBuilder b(n);
  std::vector<Vertex> coord(dims.size(), 0);
  for (Vertex v = 0; v < n; ++v) {
    for (std::size_t d = 0; d < dims.size(); ++d) {
      const Vertex len = dims[d];
      if (coord[d] + 1 < len) {
        b.add_edge(v, static_cast<Vertex>(v + stride[d]));
      } else if (topology == GridTopology::kTorus && len >= 3) {
        // wrap edge from the last coordinate back to 0
        b.add_edge(v, static_cast<Vertex>(v - stride[d] * (len - 1)));
      }
    }
    // Advance the mixed-radix coordinate counter.
    for (std::size_t d = dims.size(); d-- > 0;) {
      if (++coord[d] < dims[d]) break;
      coord[d] = 0;
    }
  }
  return b.build();
}

Graph make_grid_2d(Vertex side, GridTopology topology) {
  return make_grid({side, side}, topology);
}

Graph make_torus(Vertex side, unsigned dimensions) {
  MW_REQUIRE(dimensions >= 1, "torus needs >= 1 dimension");
  return make_grid(std::vector<Vertex>(dimensions, side), GridTopology::kTorus);
}

Graph make_hypercube(unsigned dimension) {
  MW_REQUIRE(dimension >= 1 && dimension < 31, "hypercube dimension in [1,30]");
  const Vertex n = Vertex{1} << dimension;
  GraphBuilder b(n);
  for (Vertex v = 0; v < n; ++v) {
    for (unsigned bit = 0; bit < dimension; ++bit) {
      const Vertex u = v ^ (Vertex{1} << bit);
      if (u > v) b.add_edge(v, u);
    }
  }
  return b.build();
}

Graph make_balanced_tree(unsigned arity, unsigned height) {
  MW_REQUIRE(arity >= 1, "tree arity must be >= 1");
  std::uint64_t n64 = 1;
  std::uint64_t level = 1;
  for (unsigned h = 0; h < height; ++h) {
    level *= arity;
    n64 += level;
    MW_REQUIRE(n64 < kInvalidVertex, "tree too large for 32-bit vertices");
  }
  const auto n = static_cast<Vertex>(n64);
  GraphBuilder b(n);
  for (Vertex v = 1; v < n; ++v) {
    b.add_edge(v, (v - 1) / arity);
  }
  return b.build();
}

Vertex barbell_center(Vertex n) {
  MW_REQUIRE(n >= 7 && n % 2 == 1, "barbell needs odd n >= 7, got " << n);
  return (n - 1) / 2;
}

Graph make_barbell(Vertex n) {
  MW_REQUIRE(n >= 7 && n % 2 == 1, "barbell needs odd n >= 7, got " << n);
  const Vertex bell = (n - 1) / 2;  // size of each clique
  const Vertex center = barbell_center(n);
  GraphBuilder b(n);
  // Left bell: vertices 0..bell-1, port = bell-1.
  for (Vertex u = 0; u < bell; ++u) {
    for (Vertex v = u + 1; v < bell; ++v) b.add_edge(u, v);
  }
  // Right bell: vertices center+1..n-1, port = center+1.
  for (Vertex u = center + 1; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) b.add_edge(u, v);
  }
  // Path of length 2 through the center.
  b.add_edge(bell - 1, center);
  b.add_edge(center, center + 1);
  return b.build();
}

Graph make_generalized_barbell(Vertex clique_size, Vertex path_interior) {
  MW_REQUIRE(clique_size >= 2, "generalized barbell needs cliques of size >= 2");
  const std::uint64_t n64 =
      2ULL * clique_size + static_cast<std::uint64_t>(path_interior);
  MW_REQUIRE(n64 < kInvalidVertex, "generalized barbell too large");
  const auto n = static_cast<Vertex>(n64);
  GraphBuilder b(n);
  // Left clique 0..c-1 (port c-1), interior path c..c+p-1, right clique
  // c+p..n-1 (port c+p).
  const Vertex c = clique_size;
  for (Vertex u = 0; u < c; ++u) {
    for (Vertex v = u + 1; v < c; ++v) b.add_edge(u, v);
  }
  for (Vertex u = c + path_interior; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) b.add_edge(u, v);
  }
  for (Vertex v = c - 1; v < c + path_interior; ++v) b.add_edge(v, v + 1);
  return b.build();
}

Graph make_lollipop(Vertex n) {
  MW_REQUIRE(n >= 4, "lollipop needs n >= 4, got " << n);
  const Vertex clique = std::max<Vertex>(3, (2 * n) / 3);
  GraphBuilder b(n);
  for (Vertex u = 0; u < clique; ++u) {
    for (Vertex v = u + 1; v < clique; ++v) b.add_edge(u, v);
  }
  // Path attached to the clique at vertex clique-1.
  for (Vertex v = clique - 1; v + 1 < n; ++v) b.add_edge(v, v + 1);
  return b.build();
}

Graph make_margulis_expander(Vertex side) {
  MW_REQUIRE(side >= 2, "Margulis expander needs side >= 2");
  const std::uint64_t n64 = static_cast<std::uint64_t>(side) * side;
  MW_REQUIRE(n64 < kInvalidVertex, "Margulis expander too large");
  const auto n = static_cast<Vertex>(n64);
  const std::uint64_t m = side;

  // Every vertex has exactly 8 ports, so row v of the CSR is
  // targets[8v, 8v + 8); loops and parallel edges are kept as ports.
  constexpr std::uint64_t kPorts = 8;
  std::vector<std::uint64_t> offsets(static_cast<std::size_t>(n) + 1);
  ArcVector targets(n64 * kPorts);
  const auto idx = [m](std::uint64_t x, std::uint64_t y) {
    return static_cast<Vertex>((x % m) * m + (y % m));
  };
  for (std::uint64_t x = 0; x < m; ++x) {
    for (std::uint64_t y = 0; y < m; ++y) {
      const Vertex v = idx(x, y);
      // The four Gabber–Galil maps and their inverses, one arc per port.
      // Additions stay in uint64 range; subtractions go through +k*m.
      Vertex* const row = targets.data() + v * kPorts;
      row[0] = idx(x + 2 * y, y);
      row[1] = idx(x + 2 * (m - y), y);            // x - 2y
      row[2] = idx(x + 2 * y + 1, y);
      row[3] = idx(x + 2 * (m - y) + (m - 1), y);  // x - 2y - 1
      row[4] = idx(x, y + 2 * x);
      row[5] = idx(x, y + 2 * (m - x));            // y - 2x
      row[6] = idx(x, y + 2 * x + 1);
      row[7] = idx(x, y + 2 * (m - x) + (m - 1));  // y - 2x - 1
      std::sort(row, row + kPorts);
      offsets[static_cast<std::size_t>(v) + 1] = (v + 1) * kPorts;
    }
  }
  return Graph::from_csr(std::move(offsets), std::move(targets),
                         /*validate=*/true);
}

}  // namespace manywalks
