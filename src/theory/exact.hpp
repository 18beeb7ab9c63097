// Exact Markov-chain computations used as ground truth: hitting times via
// linear solves, cover times via a DP over visited subsets, the exact
// k-walk cover time on tiny graphs (the oracle for the simulation engine),
// and effective resistances (commute-time identity).
//
// Everything here is dense/exponential and intended for oracle-scale
// graphs; the guards state the limits explicitly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.hpp"
#include "linalg/dense.hpp"

namespace manywalks {

/// Exact expected hitting times h(v -> target) for all v, by solving the
/// first-step system (I - Q) h = 1 on V \ {target}. O(n^3); requires a
/// connected graph.
std::vector<double> hitting_times_to(const Graph& g, Vertex target);

/// All-pairs hitting times from the grounded-Laplacian Cholesky inverse and
/// Tetali's formula: with G the inverse of the Laplacian L grounded at
/// vertex n-1 (zero row/column there) and u = G deg,
///   h(i, j) = num_arcs() (G(j,j) - G(i,j)) + u(i) - u(j).
/// One symmetric O(n^3) factorization for all n^2 values; valid for any
/// connected graph (including periodic chains, loops and parallel edges).
/// Entry (i,i) is 0.
DenseMatrix hitting_time_matrix(const Graph& g);

struct HittingExtremes {
  double h_max = 0.0;
  double h_min = 0.0;
  Vertex argmax_from = 0;
  Vertex argmax_to = 0;
};

/// Max/min hitting times over ordered pairs of distinct vertices.
HittingExtremes hitting_extremes(const DenseMatrix& hitting_matrix);
HittingExtremes hitting_extremes(const Graph& g);

/// Exact expected cover time of a single walk from `start`, by dynamic
/// programming over visited subsets (one |S| x |S| solve per subset).
/// Requires n <= 16 (2^n subsets); ~40M flops at the limit.
double exact_cover_time(const Graph& g, Vertex start);

/// First and second moments of the cover time.
struct CoverMoments {
  double mean = 0.0;
  double variance = 0.0;
  /// Coefficient of variation sqrt(variance)/mean (0 for deterministic
  /// cover, e.g. K_2). The Aldous concentration theorem (paper Thm 17)
  /// says this tends to 0 exactly when C/h_max -> infinity.
  double coefficient_of_variation() const;
};

/// Exact mean AND variance of the cover time from `start`, by propagating
/// second moments through the same visited-subset DP (two solves per
/// subset). Requires n <= 16.
CoverMoments exact_cover_time_moments(const Graph& g, Vertex start);

/// Exact expected cover time of a k-walk from the given starting vertices
/// (tokens move simultaneously each round; round count as in
/// sample_multi_cover_time). State space is |S|^k per visited subset S —
/// the per-subset system size is capped by `max_states_per_system`
/// (default 729 = 3^6; e.g. n=8 with k=2, or n=6 with k=3).
double exact_k_cover_time(const Graph& g, std::span<const Vertex> starts,
                          std::size_t max_states_per_system = 729);

/// Exact expected rounds for a k-walk from `starts` until ANY token stands
/// on `target` (the pursuit/search quantity sample_hitting_time samples).
/// One dense solve over the n^k product-chain states with the target made
/// absorbing; n^k is capped by `max_states`.
double exact_k_hitting_time(const Graph& g, std::span<const Vertex> starts,
                            Vertex target, std::size_t max_states = 729);

/// Effective resistance between u and v with every non-loop edge a unit
/// resistor (parallel edges in parallel). Satisfies the commute identity
/// h(u,v) + h(v,u) = num_arcs() * R_eff(u,v).
double effective_resistance(const Graph& g, Vertex u, Vertex v);

}  // namespace manywalks
