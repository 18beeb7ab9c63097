// Generators for every graph family studied in the paper (Table 1 and §6/§7)
// plus a few classics used by tests and examples.
//
// Vertex numbering conventions are documented per generator because the
// experiments need canonical starting vertices (e.g. the barbell center).
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace manywalks {

// ---------------------------------------------------------------------------
// Deterministic families
// ---------------------------------------------------------------------------

/// Cycle L_n (the paper's ring), n >= 3. Vertex i ~ i±1 (mod n).
Graph make_cycle(Vertex n);

/// Path on n vertices (0-1-2-...-n-1), n >= 2.
Graph make_path(Vertex n);

/// Complete graph K_n, n >= 2. `with_self_loops` adds one loop per vertex
/// (the convention used in the paper's Lemma 12 / expander discussion).
Graph make_complete(Vertex n, bool with_self_loops = false);

/// Complete bipartite K_{a,b}; vertices 0..a-1 on the left.
Graph make_complete_bipartite(Vertex a, Vertex b);

/// Star S_n: vertex 0 is the hub, 1..n-1 are leaves; n >= 2.
Graph make_star(Vertex n);

enum class GridTopology {
  kTorus,  ///< wrap-around neighbors (vertex-transitive; used in Thm 8/24)
  kOpen,   ///< no wrap-around (boundary vertices have lower degree)
};

/// d-dimensional grid with side lengths `dims` (each >= 1). Torus topology
/// skips wrap edges along dimensions of length < 3 (avoiding duplicates).
/// Vertex index is row-major: index = sum_i coord[i] * stride[i].
Graph make_grid(const std::vector<Vertex>& dims,
                GridTopology topology = GridTopology::kTorus);

/// Convenience: side x side 2-D grid.
Graph make_grid_2d(Vertex side, GridTopology topology = GridTopology::kTorus);

/// Convenience: d-dimensional torus with equal sides.
Graph make_torus(Vertex side, unsigned dimensions);

/// Hypercube on 2^dimension vertices; u ~ v iff they differ in one bit.
Graph make_hypercube(unsigned dimension);

/// Complete `arity`-ary tree of the given height (height 0 = single root).
/// Root is vertex 0; children of v are arity*v+1 .. arity*v+arity.
/// This is the paper's "d-regular balanced tree" family (internal degree
/// arity+1).
Graph make_balanced_tree(unsigned arity, unsigned height);

/// The paper's barbell B_n (§7): n odd, two cliques of size (n-1)/2 joined
/// by a path of length 2 through the center vertex. Vertices 0..(n-3)/2-1 =
/// left bell, (n-3)/2 = left port, then center, then the right side
/// mirrored. Use `barbell_center()` for the canonical start.
Graph make_barbell(Vertex n);

/// Center vertex index of make_barbell(n).
Vertex barbell_center(Vertex n);

/// Two cliques of `clique_size` joined by a path with `path_interior`
/// interior vertices (path length = path_interior + 1 edges on each ... the
/// full bridge has path_interior vertices strictly between the two cliques).
Graph make_generalized_barbell(Vertex clique_size, Vertex path_interior);

/// Lollipop graph: clique on ceil(2n/3) vertices with a path of the
/// remaining vertices attached (the Θ(n³) worst case for cover time).
/// Vertex n-1 is the far end of the path; vertex 0 is in the clique.
Graph make_lollipop(Vertex n);

// ---------------------------------------------------------------------------
// Expanders
// ---------------------------------------------------------------------------

/// Margulis–Gabber–Galil expander on Z_m x Z_m: 8-regular multigraph on
/// n = side^2 vertices. Vertex (x,y) has ports to (x±2y, y), (x±(2y+1), y),
/// (x, y±2x), (x, y±(2x+1)) (mod side). All non-trivial eigenvalues of the
/// adjacency matrix satisfy |λ| <= 5·sqrt(2) < 8, so this is an (n, 8, λ)
/// expander for every side. Contains self loops and parallel edges by
/// construction; every vertex has degree exactly 8. The 8 ports of v are
/// written straight into CSR row [8v, 8v + 8) and sorted, so the build
/// takes the graph's own O(n·8) words plus from_csr's validation scratch.
Graph make_margulis_expander(Vertex side);

// ---------------------------------------------------------------------------
// Random families
// ---------------------------------------------------------------------------

/// Erdős–Rényi G(n, p). Simple graph; may be disconnected (use
/// `make_erdos_renyi_connected` or extract_largest_component for walks).
/// Uses geometric skipping, O(n + m) expected time.
Graph make_erdos_renyi(Vertex n, double p, Rng& rng);

/// Resamples G(n, p) until connected (at most `max_attempts` draws).
/// Throws if all attempts fail — choose p >= c·ln(n)/n with c > 1.
Graph make_erdos_renyi_connected(Vertex n, double p, Rng& rng,
                                 unsigned max_attempts = 64);

/// Random d-regular simple graph via the configuration model with
/// restarts (rejecting pairings that create loops/multi-edges). Requires
/// n*d even, d < n and n*d < 2^32 (stub indices are 32-bit draws).
/// Expected O(n·d^2) per attempt (each duplicate test scans a partly
/// filled row), O(1) attempts for fixed d. Pairs are written straight into
/// the CSR rows [v·d, v·d + d), with no hash set: O(n·d) words for the
/// rows plus the stub pool.
Graph make_random_regular(Vertex n, Vertex degree, Rng& rng,
                          unsigned max_attempts = 1000);

/// Random geometric graph: n points uniform in the unit square, edge iff
/// Euclidean distance <= radius. Grid-bucketed, O(n + m) expected.
/// The paper cites RGGs (with radius above the connectivity threshold
/// ~ sqrt(ln n / n)) as a family where Matthews' bound is tight.
Graph make_random_geometric(Vertex n, double radius, Rng& rng);

/// Radius giving connectivity w.h.p.: sqrt(c * ln(n) / n), default c = 2.
double random_geometric_connectivity_radius(Vertex n, double c = 2.0);

}  // namespace manywalks
