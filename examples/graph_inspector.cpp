// Graph inspector: profile ANY graph (from an edge-list file or a built-in
// family) through the lens of the paper — structure, spectra, mixing,
// hitting/cover times, and the measured speed-up regime.
//
//   ./graph_inspector --family barbell --n 257
//   ./graph_inspector --file mygraph.edges --save roundtrip.edges
//
// Edge-list format (see graph/io.hpp):
//   # manywalks-graph 1
//   <num_vertices>
//   <u> <v>        (one line per edge)
#include <algorithm>
#include <fstream>
#include <iostream>
#include <vector>

#include "manywalks.hpp"

int main(int argc, char** argv) {
  using namespace manywalks;

  std::string file;
  std::string family_str;
  std::string save;
  std::uint64_t n = 256;
  std::uint64_t trials = 150;
  std::uint64_t seed = 12;

  ArgParser parser("graph_inspector",
                   "profile a graph through the paper's quantities");
  parser.add_option("file", &file, "edge-list file to inspect")
      .add_option("family", &family_str, "built-in family (alternative to --file)")
      .add_option("n", &n, "target size for --family")
      .add_option("save", &save, "write the graph back to this edge-list file")
      .add_option("trials", &trials, "Monte-Carlo trials per estimate")
      .add_option("seed", &seed, "random seed");
  if (!parser.parse(argc, argv)) return 1;

  Graph graph;
  Vertex start = 0;
  std::string name;
  if (!file.empty()) {
    std::ifstream in(file);
    if (!in) {
      std::cerr << "cannot open '" << file << "'\n";
      return 1;
    }
    graph = read_edge_list(in);
    name = file;
  } else {
    const auto family =
        family_from_name(family_str.empty() ? "grid2d" : family_str);
    if (!family) {
      std::cerr << "unknown family '" << family_str << "'\n";
      return 1;
    }
    FamilyInstance instance = make_family_instance(*family, n, seed);
    graph = std::move(instance.graph);
    start = instance.start;
    name = instance.name;
  }

  if (graph.num_vertices() == 0 || graph.num_arcs() == 0) {
    std::cerr << "graph has no edges; nothing to walk on\n";
    return 1;
  }
  if (!is_connected(graph)) {
    const auto sub = extract_largest_component(graph);
    std::cerr << "note: graph disconnected; profiling the largest component ("
              << sub.graph.num_vertices() << " of " << graph.num_vertices()
              << " vertices)\n";
    graph = sub.graph;
    start = 0;
  }

  // --- structure ---------------------------------------------------------
  TextTable structure("Structure — " + name);
  structure.add_column("property", TextTable::Align::kLeft)
      .add_column("value", TextTable::Align::kLeft);
  const DegreeStats degrees = degree_stats(graph);
  structure.begin_row().cell("vertices / edges").cell(
      format_count(graph.num_vertices()) + " / " + format_count(graph.num_edges()));
  structure.begin_row().cell("degree min/mean/max").cell(
      format_count(degrees.min) + " / " + format_double(degrees.mean, 3) +
      " / " + format_count(degrees.max));
  structure.begin_row().cell("self loops").cell(format_count(graph.num_loops()));
  structure.begin_row().cell("bipartite").cell(is_bipartite(graph) ? "yes" : "no");
  {
    Rng rng(mix64(seed));
    structure.begin_row().cell("diameter (lower bound)").cell(
        format_count(diameter_lower_bound(graph, rng)));
  }
  const SpectralResult spectrum = second_eigenvalue(graph);
  structure.begin_row().cell("|λ₂| of walk matrix").cell(
      format_double(spectrum.lambda_norm, 4) +
      (spectrum.converged ? "" : " (not converged)"));
  structure.begin_row().cell("spectral gap").cell(
      format_double(spectrum.spectral_gap, 4));
  std::cout << structure << '\n';

  // --- walk profile ------------------------------------------------------
  McOptions mc;
  mc.min_trials = std::min(std::max<std::uint64_t>(trials / 4, 8), trials);
  mc.max_trials = trials;
  mc.seed = mix64(seed ^ 0x1);

  FamilyInstance pseudo;
  pseudo.graph = std::move(graph);
  pseudo.start = start;
  pseudo.needs_lazy_mixing = is_bipartite(pseudo.graph);
  ProfileOptions profile_options;
  profile_options.mc = mc;
  const GraphProfile profile = profile_graph(pseudo, profile_options);

  TextTable walk_table("Random-walk profile (start vertex " +
                       format_count(start) + ")");
  walk_table.add_column("quantity", TextTable::Align::kLeft)
      .add_column("value", TextTable::Align::kLeft);
  walk_table.begin_row().cell("cover time C").cell(
      format_mean_pm(profile.cover.ci.mean, profile.cover.ci.half_width));
  walk_table.begin_row()
      .cell(profile.h_max.exact ? "h_max (exact)" : "h_max (sampled)")
      .cell(format_double(profile.h_max.value));
  walk_table.begin_row()
      .cell(profile.mixing.laziness > 0 ? "t_mix (lazy)" : "t_mix")
      .cell(profile.mixing.converged ? format_count(profile.mixing.time)
                                     : "> " + format_count(profile.mixing.time));
  walk_table.begin_row().cell("Matthews gap C/h_max").cell(
      format_double(profile.gap, 3));
  walk_table.begin_row().cell("Matthews upper h_max·H_{n-1}").cell(
      format_double(matthews_upper_bound(profile.h_max.value,
                                         pseudo.graph.num_vertices())));
  std::cout << '\n' << walk_table << '\n';

  // --- speed-up regime -----------------------------------------------------
  const std::vector<unsigned> ks = {2, 4, 8, 16, 32};
  const auto curve =
      estimate_speedup_curve(pseudo.graph, start, ks, mc);
  const RegimeFit fit = classify_speedup_regime(curve);
  TextTable regime_table("Measured speed-up curve");
  regime_table.add_column("k").add_column("S^k");
  for (const SpeedupEstimate& p : curve) {
    regime_table.begin_row()
        .cell(static_cast<std::uint64_t>(p.k))
        .cell(format_mean_pm(p.speedup, p.half_width, 3));
  }
  std::cout << '\n'
            << regime_table << "\nRegime: S^k ≈ "
            << format_double(fit.multiplier, 3) << " · k^"
            << format_double(fit.exponent, 3) << "  → " << regime_name(fit.regime)
            << " (R² = " << format_double(fit.r_squared, 3) << ")\n";

  if (!save.empty()) {
    std::ofstream out(save);
    if (!out) {
      std::cerr << "cannot write '" << save << "'\n";
      return 1;
    }
    write_edge_list(out, pseudo.graph);
    std::cerr << "# wrote " << save << '\n';
  }
  return 0;
}
