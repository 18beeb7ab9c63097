#include "theory/exact.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "graph/properties.hpp"
#include "util/check.hpp"

namespace manywalks {

namespace {

/// Row of vertex w != ground in the Laplacian grounded at `ground`.
std::size_t grounded_row(Vertex w, Vertex ground) {
  return w < ground ? w : w - 1;
}

/// Laplacian of the unit-resistor network with `ground` deleted. Loop arcs
/// carry no current and are skipped; parallel arcs count once each.
DenseMatrix grounded_laplacian(const Graph& g, Vertex ground) {
  const Vertex n = g.num_vertices();
  DenseMatrix lap(n - 1, n - 1, 0.0);
  for (Vertex w = 0; w < n; ++w) {
    if (w == ground) continue;
    const std::size_t r = grounded_row(w, ground);
    for (Vertex x : g.neighbors(w)) {
      if (x == w) continue;
      lap.at(r, r) += 1.0;
      if (x != ground) lap.at(r, grounded_row(x, ground)) -= 1.0;
    }
  }
  return lap;
}

}  // namespace

std::vector<double> hitting_times_to(const Graph& g, Vertex target) {
  const Vertex n = g.num_vertices();
  MW_REQUIRE(target < n, "hitting target out of range");
  MW_REQUIRE(is_connected(g), "hitting times need a connected graph");
  MW_REQUIRE(n >= 2, "need at least two vertices");

  // Index map skipping the absorbing target.
  std::vector<Vertex> to_sub(n, kInvalidVertex);
  std::vector<Vertex> from_sub;
  from_sub.reserve(n - 1);
  for (Vertex v = 0; v < n; ++v) {
    if (v == target) continue;
    to_sub[v] = static_cast<Vertex>(from_sub.size());
    from_sub.push_back(v);
  }

  const std::size_t m = n - 1;
  DenseMatrix a(m, m, 0.0);
  std::vector<double> b(m, 1.0);
  for (std::size_t r = 0; r < m; ++r) {
    const Vertex v = from_sub[r];
    a.at(r, r) += 1.0;
    const double w = 1.0 / static_cast<double>(g.degree(v));
    for (Vertex u : g.neighbors(v)) {
      if (u == target) continue;
      a.at(r, to_sub[u]) -= w;
    }
  }
  const std::vector<double> h_sub = solve_linear(std::move(a), std::move(b));
  std::vector<double> h(n, 0.0);
  for (std::size_t r = 0; r < m; ++r) h[from_sub[r]] = h_sub[r];
  return h;
}

DenseMatrix hitting_time_matrix(const Graph& g) {
  const Vertex n = g.num_vertices();
  MW_REQUIRE(is_connected(g), "hitting times need a connected graph");
  MW_REQUIRE(n >= 2, "need at least two vertices");

  // Column j of H solves L h = d - 2m e_j with h(j) = 0, and d - 2m e_j sums
  // to zero, so any generalized inverse G of L gives (Tetali)
  //   h(i, j) = 2m (G(j,j) - G(i,j)) + u(i) - u(j),  u = G d.
  // G is the inverse of L grounded at n-1 (so vertex i is row i), padded
  // with a zero row and column for the ground.
  const Vertex ground = n - 1;
  const DenseMatrix g_inv = spd_inverse(grounded_laplacian(g, ground));
  const auto green = [&g_inv, ground](Vertex i, Vertex j) {
    return i == ground || j == ground ? 0.0 : g_inv.at(i, j);
  };
  std::vector<double> u(n, 0.0);
  for (Vertex i = 0; i < ground; ++i) {
    double acc = 0.0;
    for (Vertex k = 0; k < ground; ++k) acc += g_inv.at(i, k) * g.degree(k);
    u[i] = acc;
  }
  const double two_m = static_cast<double>(g.num_arcs());

  DenseMatrix h(n, n, 0.0);
  for (Vertex i = 0; i < n; ++i) {
    for (Vertex j = 0; j < n; ++j) {
      if (i == j) continue;
      h.at(i, j) = two_m * (green(j, j) - green(i, j)) + u[i] - u[j];
    }
  }
  return h;
}

HittingExtremes hitting_extremes(const DenseMatrix& hitting_matrix) {
  const std::size_t n = hitting_matrix.rows();
  MW_REQUIRE(n >= 2 && hitting_matrix.cols() == n,
             "hitting matrix must be square with n >= 2");
  HittingExtremes ext;
  ext.h_min = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      const double h = hitting_matrix.at(i, j);
      if (h > ext.h_max) {
        ext.h_max = h;
        ext.argmax_from = static_cast<Vertex>(i);
        ext.argmax_to = static_cast<Vertex>(j);
      }
      ext.h_min = std::min(ext.h_min, h);
    }
  }
  return ext;
}

HittingExtremes hitting_extremes(const Graph& g) {
  return hitting_extremes(hitting_time_matrix(g));
}

double exact_cover_time(const Graph& g, Vertex start) {
  const Vertex n = g.num_vertices();
  MW_REQUIRE(start < n, "start out of range");
  MW_REQUIRE(n >= 1 && n <= 16, "exact_cover_time supports n <= 16");
  MW_REQUIRE(is_connected(g), "exact_cover_time needs a connected graph");
  if (n == 1) return 0.0;

  const std::uint32_t full = (std::uint32_t{1} << n) - 1;
  // expected[S * n + v] = E[additional rounds | visited = S, walk at v],
  // defined for v in S.
  std::vector<double> expected(static_cast<std::size_t>(full + 1) * n, 0.0);

  std::vector<Vertex> members;
  std::vector<Vertex> to_sub(n);
  // S = full has zero additional expectation (already initialized); walk
  // the remaining subsets in decreasing numeric order, which respects the
  // superset dependency S | {u} > S.
  for (std::uint32_t s = full - 1; s >= 1; --s) {
    members.clear();
    for (Vertex v = 0; v < n; ++v) {
      if (s & (std::uint32_t{1} << v)) {
        to_sub[v] = static_cast<Vertex>(members.size());
        members.push_back(v);
      }
    }
    const std::size_t m = members.size();
    DenseMatrix a(m, m, 0.0);
    std::vector<double> b(m, 1.0);
    for (std::size_t r = 0; r < m; ++r) {
      const Vertex v = members[r];
      a.at(r, r) += 1.0;
      const double w = 1.0 / static_cast<double>(g.degree(v));
      for (Vertex u : g.neighbors(v)) {
        if (s & (std::uint32_t{1} << u)) {
          a.at(r, to_sub[u]) -= w;
        } else {
          const std::uint32_t super = s | (std::uint32_t{1} << u);
          b[r] += w * expected[static_cast<std::size_t>(super) * n + u];
        }
      }
    }
    const std::vector<double> e = solve_linear(std::move(a), std::move(b));
    for (std::size_t r = 0; r < m; ++r) {
      expected[static_cast<std::size_t>(s) * n + members[r]] = e[r];
    }
  }
  const std::uint32_t s0 = std::uint32_t{1} << start;
  return expected[static_cast<std::size_t>(s0) * n + start];
}

double CoverMoments::coefficient_of_variation() const {
  if (mean == 0.0) return 0.0;
  return std::sqrt(std::max(0.0, variance)) / mean;
}

CoverMoments exact_cover_time_moments(const Graph& g, Vertex start) {
  const Vertex n = g.num_vertices();
  MW_REQUIRE(start < n, "start out of range");
  MW_REQUIRE(n >= 1 && n <= 16, "exact_cover_time_moments supports n <= 16");
  MW_REQUIRE(is_connected(g), "exact_cover_time_moments needs connectivity");
  if (n == 1) return {};

  const std::uint32_t full = (std::uint32_t{1} << n) - 1;
  // m1/m2: first/second moment of the remaining cover time per (S, v).
  std::vector<double> m1(static_cast<std::size_t>(full + 1) * n, 0.0);
  std::vector<double> m2(static_cast<std::size_t>(full + 1) * n, 0.0);

  std::vector<Vertex> members;
  std::vector<Vertex> to_sub(n);
  for (std::uint32_t s = full - 1; s >= 1; --s) {
    members.clear();
    for (Vertex v = 0; v < n; ++v) {
      if (s & (std::uint32_t{1} << v)) {
        to_sub[v] = static_cast<Vertex>(members.size());
        members.push_back(v);
      }
    }
    const std::size_t m = members.size();

    // First moments: (I - P_SS) m1 = 1 + sum_{u outside} p * m1(u, S+u).
    DenseMatrix a1(m, m, 0.0);
    std::vector<double> b1(m, 1.0);
    for (std::size_t r = 0; r < m; ++r) {
      const Vertex v = members[r];
      a1.at(r, r) += 1.0;
      const double w = 1.0 / static_cast<double>(g.degree(v));
      for (Vertex u : g.neighbors(v)) {
        if (s & (std::uint32_t{1} << u)) {
          a1.at(r, to_sub[u]) -= w;
        } else {
          const std::uint32_t super = s | (std::uint32_t{1} << u);
          b1[r] += w * m1[static_cast<std::size_t>(super) * n + u];
        }
      }
    }
    DenseMatrix a2 = a1;  // same linear operator for the second moments
    const std::vector<double> e1 = solve_linear(std::move(a1), std::move(b1));
    for (std::size_t r = 0; r < m; ++r) {
      m1[static_cast<std::size_t>(s) * n + members[r]] = e1[r];
    }

    // Second moments: T = 1 + T' gives E[T^2] = 1 + 2 E[T'] + E[T'^2], so
    // (I - P_SS) m2 = 1 + sum_u p * 2 m1(next) + sum_{u outside} p * m2.
    std::vector<double> b2(m, 1.0);
    for (std::size_t r = 0; r < m; ++r) {
      const Vertex v = members[r];
      const double w = 1.0 / static_cast<double>(g.degree(v));
      for (Vertex u : g.neighbors(v)) {
        if (s & (std::uint32_t{1} << u)) {
          b2[r] += w * 2.0 * m1[static_cast<std::size_t>(s) * n + u];
        } else {
          const std::uint32_t super = s | (std::uint32_t{1} << u);
          b2[r] += w * (2.0 * m1[static_cast<std::size_t>(super) * n + u] +
                        m2[static_cast<std::size_t>(super) * n + u]);
        }
      }
    }
    const std::vector<double> e2 = solve_linear(std::move(a2), std::move(b2));
    for (std::size_t r = 0; r < m; ++r) {
      m2[static_cast<std::size_t>(s) * n + members[r]] = e2[r];
    }
  }

  const std::uint32_t s0 = std::uint32_t{1} << start;
  CoverMoments out;
  out.mean = m1[static_cast<std::size_t>(s0) * n + start];
  const double second = m2[static_cast<std::size_t>(s0) * n + start];
  out.variance = second - out.mean * out.mean;
  return out;
}

namespace {

/// Enumerates the joint moves of all tokens recursively, accumulating the
/// product probability; calls sink(new_positions, probability).
template <typename Sink>
void enumerate_joint_moves(const Graph& g, const std::vector<Vertex>& pos,
                           std::size_t token, std::vector<Vertex>& next,
                           double prob, Sink&& sink) {
  if (token == pos.size()) {
    sink(next, prob);
    return;
  }
  const Vertex v = pos[token];
  const double w = prob / static_cast<double>(g.degree(v));
  for (Vertex u : g.neighbors(v)) {
    next[token] = u;
    enumerate_joint_moves(g, pos, token + 1, next, w, sink);
  }
}

}  // namespace

double exact_k_cover_time(const Graph& g, std::span<const Vertex> starts,
                          std::size_t max_states_per_system) {
  const Vertex n = g.num_vertices();
  MW_REQUIRE(!starts.empty(), "need at least one token");
  MW_REQUIRE(n >= 1 && n <= 16, "exact_k_cover_time supports n <= 16");
  MW_REQUIRE(is_connected(g), "exact_k_cover_time needs a connected graph");
  const std::size_t k = starts.size();
  for (Vertex s : starts) MW_REQUIRE(s < n, "start out of range");

  // System size for the largest subset is n^k.
  double states_d = 1.0;
  for (std::size_t i = 0; i < k; ++i) states_d *= n;
  MW_REQUIRE(states_d <= static_cast<double>(max_states_per_system),
             "state space n^k = " << states_d << " exceeds cap "
                                  << max_states_per_system);

  const std::uint32_t full = (std::uint32_t{1} << n) - 1;
  // expected[S] holds |members(S)|^k values, indexed by the mixed-radix
  // tuple of token positions within members(S).
  std::vector<std::vector<double>> expected(full + 1);

  std::vector<Vertex> members;
  std::vector<Vertex> to_sub(n);
  std::vector<Vertex> pos(k);
  std::vector<Vertex> next(k);

  const auto tuple_index = [&](const std::vector<Vertex>& tuple,
                               const std::vector<Vertex>& sub_of,
                               std::size_t base) {
    std::size_t idx = 0;
    for (Vertex v : tuple) idx = idx * base + sub_of[v];
    return idx;
  };

  for (std::uint32_t s = full; s >= 1; --s) {
    members.clear();
    for (Vertex v = 0; v < n; ++v) {
      if (s & (std::uint32_t{1} << v)) {
        to_sub[v] = static_cast<Vertex>(members.size());
        members.push_back(v);
      }
    }
    const std::size_t base = members.size();
    std::size_t num_states = 1;
    for (std::size_t i = 0; i < k; ++i) num_states *= base;
    expected[s].assign(num_states, 0.0);
    if (s == full) continue;  // everything visited: zero additional rounds

    DenseMatrix a(num_states, num_states, 0.0);
    std::vector<double> b(num_states, 1.0);
    for (std::size_t state = 0; state < num_states; ++state) {
      // Decode the mixed-radix state into token positions.
      std::size_t rem = state;
      for (std::size_t i = k; i-- > 0;) {
        pos[i] = members[rem % base];
        rem /= base;
      }
      a.at(state, state) += 1.0;
      enumerate_joint_moves(
          g, pos, 0, next, 1.0,
          [&](const std::vector<Vertex>& moved, double prob) {
            std::uint32_t super = s;
            for (Vertex v : moved) super |= std::uint32_t{1} << v;
            if (super == s) {
              a.at(state, tuple_index(moved, to_sub, base)) -= prob;
            } else {
              // expected[super] was computed earlier (super > s).
              std::vector<Vertex> sup_members;
              std::vector<Vertex> sup_sub(n);
              for (Vertex v = 0; v < n; ++v) {
                if (super & (std::uint32_t{1} << v)) {
                  sup_sub[v] = static_cast<Vertex>(sup_members.size());
                  sup_members.push_back(v);
                }
              }
              const std::size_t idx =
                  tuple_index(moved, sup_sub, sup_members.size());
              b[state] += prob * expected[super][idx];
            }
          });
    }
    expected[s] = solve_linear(std::move(a), std::move(b));
  }

  std::uint32_t s0 = 0;
  for (Vertex v : starts) s0 |= std::uint32_t{1} << v;
  members.clear();
  for (Vertex v = 0; v < n; ++v) {
    if (s0 & (std::uint32_t{1} << v)) {
      to_sub[v] = static_cast<Vertex>(members.size());
      members.push_back(v);
    }
  }
  std::vector<Vertex> start_tuple(starts.begin(), starts.end());
  return expected[s0][tuple_index(start_tuple, to_sub, members.size())];
}

double exact_k_hitting_time(const Graph& g, std::span<const Vertex> starts,
                            Vertex target, std::size_t max_states) {
  const Vertex n = g.num_vertices();
  MW_REQUIRE(!starts.empty(), "need at least one token");
  MW_REQUIRE(target < n, "target out of range");
  MW_REQUIRE(is_connected(g), "exact_k_hitting_time needs connectivity");
  const std::size_t k = starts.size();
  for (Vertex s : starts) {
    MW_REQUIRE(s < n, "start out of range");
    if (s == target) return 0.0;
  }

  std::size_t num_states = 1;
  for (std::size_t i = 0; i < k; ++i) {
    num_states *= n;
    MW_REQUIRE(num_states <= max_states,
               "state space n^k exceeds cap " << max_states);
  }

  // States are base-n tuples of token positions; any tuple containing the
  // target is absorbing (expected remaining rounds 0), so the system is
  // solved over the non-absorbing states only.
  std::vector<std::size_t> to_sub(num_states, SIZE_MAX);
  std::vector<std::size_t> from_sub;
  std::vector<Vertex> pos(k);
  for (std::size_t state = 0; state < num_states; ++state) {
    std::size_t rem = state;
    bool absorbing = false;
    for (std::size_t i = k; i-- > 0;) {
      pos[i] = static_cast<Vertex>(rem % n);
      rem /= n;
      absorbing = absorbing || pos[i] == target;
    }
    if (!absorbing) {
      to_sub[state] = from_sub.size();
      from_sub.push_back(state);
    }
  }

  const std::size_t m = from_sub.size();
  DenseMatrix a(m, m, 0.0);
  std::vector<double> b(m, 1.0);
  std::vector<Vertex> next(k);
  for (std::size_t row = 0; row < m; ++row) {
    const std::size_t state = from_sub[row];
    std::size_t rem = state;
    for (std::size_t i = k; i-- > 0;) {
      pos[i] = static_cast<Vertex>(rem % n);
      rem /= n;
    }
    a.at(row, row) += 1.0;
    enumerate_joint_moves(g, pos, 0, next, 1.0,
                          [&](const std::vector<Vertex>& moved, double prob) {
                            std::size_t idx = 0;
                            bool absorbing = false;
                            for (Vertex v : moved) {
                              idx = idx * n + v;
                              absorbing = absorbing || v == target;
                            }
                            if (!absorbing) a.at(row, to_sub[idx]) -= prob;
                          });
  }
  const std::vector<double> expected = solve_linear(std::move(a), std::move(b));

  std::size_t start_idx = 0;
  for (Vertex s : starts) start_idx = start_idx * n + s;
  MW_ASSERT(to_sub[start_idx] != SIZE_MAX);
  return expected[to_sub[start_idx]];
}

double effective_resistance(const Graph& g, Vertex u, Vertex v) {
  const Vertex n = g.num_vertices();
  MW_REQUIRE(u < n && v < n && u != v,
             "effective_resistance needs distinct vertices");
  MW_REQUIRE(is_connected(g), "effective_resistance needs a connected graph");

  // Unit current injected at u with v grounded.
  const std::size_t row_u = grounded_row(u, v);
  std::vector<double> rhs(n - 1, 0.0);
  rhs[row_u] = 1.0;
  const std::vector<double> potential =
      solve_linear(grounded_laplacian(g, v), std::move(rhs));
  return potential[row_u];
}

}  // namespace manywalks
