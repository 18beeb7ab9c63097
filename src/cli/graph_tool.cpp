#include "cli/graph_tool.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "core/families.hpp"
#include "storage/ingest.hpp"
#include "storage/mapped_graph.hpp"
#include "storage/mwg.hpp"
#include "util/json.hpp"
#include "util/options.hpp"
#include "util/table.hpp"

namespace manywalks::cli {

namespace {

void print_graph_usage(std::ostream& os) {
  os << "manywalks graph — on-disk graph tooling (mwg binary CSR, v1/v2)\n"
        "\n"
        "Usage:\n"
        "  manywalks graph gen --family=NAME --n=N [--seed=S] --out=F.mwg\n"
        "                               [--block-bits=B]\n"
        "                               synthesize a family and store it\n"
        "                               (families: cycle, grid2d, margulis,\n"
        "                               random-regular, ... — see docs).\n"
        "                               cycle/complete/grid2d/hypercube\n"
        "                               stream row by row, so the file can\n"
        "                               exceed RAM\n"
        "  manywalks graph convert --in=EDGES.txt --out=F.mwg\n"
        "                               [--block-bits=B]\n"
        "                               [--keep-duplicates]\n"
        "                               [--keep-self-loops]\n"
        "                               [--largest-component]\n"
        "                               ingest a headerless (SNAP-style)\n"
        "                               edge list: whitespace pairs, #/%\n"
        "                               comments, arbitrary vertex ids.\n"
        "                               An .mwg --in is rewritten instead\n"
        "                               (the v1 -> v2 block-index upgrade)\n"
        "  manywalks graph info FILE.mwg [--deep] [--json]\n"
        "                               header + degree statistics from the\n"
        "                               mapped file; --deep also validates\n"
        "                               the full adjacency; --json emits\n"
        "                               the same facts as JSON\n"
        "\n"
        "--block-bits: 2^B vertices per index block (v2); 0 forces v1, the\n"
        "default -1 auto-sizes (>= 4096 vertices, <= 1024 blocks). The v2\n"
        "index is what `run mwg-speedup --block-walk` schedules from.\n"
        "\n"
        "Run experiments on a stored graph with\n"
        "  manywalks run mwg-speedup --graph=F.mwg\n"
        "  manywalks run mwg-starts  --graph=F.mwg\n";
}

/// Resolves the --block-bits flag against the vertex count: <0 auto-sizes
/// (the mwg_default_block_bits policy), 0 keeps v1, 1..31 is explicit.
std::uint32_t resolve_block_bits(std::int64_t flag, std::uint64_t n) {
  if (flag < 0) return mwg_default_block_bits(n);
  MW_REQUIRE(flag <= kMwgMaxBlockBits,
             "--block-bits " << flag << " out of range (0.." << kMwgMaxBlockBits
                             << ")");
  return static_cast<std::uint32_t>(flag);
}

std::string format_version(std::uint64_t n, std::uint64_t arcs,
                           std::uint32_t block_bits) {
  if (block_bits == 0) {
    return format_count(mwg_file_bytes(n, arcs)) +
           " bytes (mwg v1, no block index)";
  }
  return format_count(mwg_file_bytes_v2(n, arcs, block_bits)) +
         " bytes (mwg v2, " + format_count(mwg_num_blocks(n, block_bits)) +
         " blocks of 2^" + std::to_string(block_bits) + " vertices)";
}

/// True when `path` starts with the mwg magic — `graph convert` then
/// rewrites the stored graph (v1 -> v2 upgrade or re-blocking) instead of
/// parsing it as an edge list.
bool sniff_mwg(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[sizeof(kMwgMagic)] = {};
  if (!in.read(magic, sizeof(magic))) return false;
  return std::memcmp(magic, kMwgMagic, sizeof(kMwgMagic)) == 0;
}

/// Pulls a LEADING positional argument (the input path) out of argv so
/// `manywalks graph info FILE.mwg --deep` works alongside `--in=`. Only
/// the first argument can be positional: a bare word later in the line is
/// ambiguous with the `--opt value` form (it would be some option's
/// value), so it is left for ArgParser to handle.
std::vector<char*> take_positional(int argc, char** argv, std::string* in) {
  std::vector<char*> rest;
  rest.push_back(argv[0]);
  int i = 1;
  if (argc > 1 && argv[1][0] != '\0' && argv[1][0] != '-') {
    *in = argv[1];
    i = 2;
  }
  for (; i < argc; ++i) rest.push_back(argv[i]);
  return rest;
}

/// Streams a closed-form family straight into MwgWriter: nothing is
/// materialized, so the file can be far bigger than an in-core Graph. The
/// bytes equal write_mwg of the family's Graph (write_mwg sorts each row,
/// which puts the hypercube's bit-order rows in CSR order).
template <Substrate S>
void write_streamed(const S& substrate, const std::string& family,
                    const std::string& out, std::int64_t block_bits_flag) {
  const Vertex n = substrate.num_vertices();
  const std::uint32_t bits = resolve_block_bits(block_bits_flag, n);
  write_mwg(out, substrate, bits);
  const std::uint64_t arcs =
      static_cast<std::uint64_t>(n) * substrate.degree(0);
  std::cout << "wrote " << out << ": " << family << "(n=" << n << ") — n "
            << format_count(n) << ", arcs " << format_count(arcs) << ", "
            << format_version(n, arcs, bits) << ", streamed\n";
}

int run_gen(int argc, char** argv) {
  std::string family_text;
  std::uint64_t n = 1024;
  std::uint64_t seed = 1;
  std::string out;
  std::int64_t block_bits = -1;
  ArgParser parser("manywalks graph gen",
                   "synthesize a graph family into an mwg file");
  parser.add_option("family", &family_text,
                    "family name (cycle, grid2d, hypercube, barbell, "
                    "margulis, random-regular, erdos-renyi, ...)")
      .add_option("n", &n, "target vertex count (rounded to the family's "
                           "natural parameterization)")
      .add_option("seed", &seed, "seed for the random families")
      .add_option("out", &out, "output .mwg path")
      .add_option("block-bits", &block_bits,
                  "2^B vertices per v2 index block; 0 = v1, -1 = auto");
  if (!parser.parse(argc, argv)) return 1;
  if (family_text.empty() || out.empty()) {
    std::cerr << "manywalks graph gen: --family and --out are required\n";
    return 1;
  }
  const auto family = family_from_name(family_text);
  if (!family.has_value()) {
    std::cerr << "manywalks graph gen: unknown family '" << family_text
              << "'; known families:";
    for (GraphFamily f : all_families()) std::cerr << ' ' << family_name(f);
    std::cerr << '\n';
    return 1;
  }
  try {
    if (const auto substrate = make_family_substrate(*family, n)) {
      std::visit(
          [&](const auto& s) {
            write_streamed(s, family_text, out, block_bits);
          },
          *substrate);
      return 0;
    }
    const FamilyInstance instance = make_family_instance(*family, n, seed);
    const std::uint32_t bits =
        resolve_block_bits(block_bits, instance.graph.num_vertices());
    write_mwg(out, instance.graph, bits);
    std::cout << "wrote " << out << ": " << instance.name << " — n "
              << format_count(instance.graph.num_vertices()) << ", edges "
              << format_count(instance.graph.num_edges()) << ", arcs "
              << format_count(instance.graph.num_arcs()) << ", "
              << format_version(instance.graph.num_vertices(),
                                instance.graph.num_arcs(), bits)
              << " (canonical start vertex " << instance.start << ")\n";
  } catch (const std::exception& error) {
    std::cerr << "manywalks graph gen: " << error.what() << '\n';
    return 1;
  }
  return 0;
}

/// The `convert` path for an .mwg input: re-streams the stored rows into
/// a fresh file at the requested block granularity — the v1 -> v2
/// upgrade, a v2 re-blocking, or a v2 -> v1 downgrade (--block-bits=0).
/// Only the O(n) metadata is resident; the adjacency streams through the
/// mapping sequentially.
int rewrite_mwg(const std::string& in, const std::string& out,
                std::int64_t block_bits_flag) {
  const MappedGraph mapped(in);
  const std::uint32_t bits =
      resolve_block_bits(block_bits_flag, mapped.num_vertices());
  MwgWriter writer(out, mapped.num_vertices(), bits);
  const std::span<const std::uint64_t> offsets = mapped.offsets();
  const std::span<const Vertex> targets = mapped.targets();
  for (Vertex v = 0; v < mapped.num_vertices(); ++v) {
    writer.append_row(targets.subspan(
        offsets[v], static_cast<std::size_t>(offsets[v + 1] - offsets[v])));
  }
  writer.finish();
  std::cout << "rewrote " << in << " (mwg v" << mapped.version() << ") -> "
            << out << ": n " << format_count(mapped.num_vertices())
            << ", arcs " << format_count(mapped.num_arcs()) << ", "
            << format_version(mapped.num_vertices(), mapped.num_arcs(), bits)
            << '\n';
  return 0;
}

int run_convert(int argc, char** argv) {
  std::string in;
  std::string out;
  std::int64_t block_bits = -1;
  bool keep_duplicates = false;
  bool keep_self_loops = false;
  bool largest_component = false;
  std::vector<char*> args = take_positional(argc, argv, &in);
  ArgParser parser("manywalks graph convert",
                   "ingest an external edge list into an mwg file");
  parser.add_option("in", &in, "input edge list (headerless '<u> <v>' "
                               "rows, #/% comments, arbitrary ids) or an "
                               ".mwg file to re-block")
      .add_option("out", &out, "output .mwg path")
      .add_option("block-bits", &block_bits,
                  "2^B vertices per v2 index block; 0 = v1, -1 = auto")
      .add_flag("keep-duplicates", &keep_duplicates,
                "keep duplicate edges as parallel edges (default: collapse)")
      .add_flag("keep-self-loops", &keep_self_loops,
                "keep self loops (default: drop)")
      .add_flag("largest-component", &largest_component,
                "keep only the largest connected component");
  if (!parser.parse(static_cast<int>(args.size()), args.data())) return 1;
  if (in.empty() || out.empty()) {
    std::cerr << "manywalks graph convert: --in and --out are required\n";
    return 1;
  }
  if (sniff_mwg(in)) {
    if (keep_duplicates || keep_self_loops || largest_component) {
      std::cerr << "manywalks graph convert: '" << in
                << "' is an .mwg file (block-index rewrite); the edge-list "
                   "cleanup flags do not apply\n";
      return 1;
    }
    try {
      return rewrite_mwg(in, out, block_bits);
    } catch (const std::exception& error) {
      std::cerr << "manywalks graph convert: " << error.what() << '\n';
      return 1;
    }
  }
  EdgeListIngestOptions options;
  options.dedup = !keep_duplicates;
  options.drop_self_loops = !keep_self_loops;
  options.largest_component = largest_component;
  try {
    const EdgeListIngestResult result = ingest_edge_list_file(in, options);
    const std::uint32_t bits =
        resolve_block_bits(block_bits, result.graph.num_vertices());
    write_mwg(out, result.graph, bits);
    const EdgeListIngestStats& stats = result.stats;
    std::cout << "read " << in << ": " << format_count(stats.lines)
              << " lines, " << format_count(stats.edges_parsed) << " edges ("
              << format_count(stats.comment_lines) << " comments/blank, "
              << format_count(stats.self_loops_dropped)
              << " self loops dropped, "
              << format_count(stats.duplicates_dropped)
              << " duplicates collapsed)\n"
              << "relabeled " << format_count(stats.distinct_ids)
              << " distinct ids -> dense 0.." << format_count(stats.distinct_ids - 1)
              << "; " << format_count(stats.num_components) << " component(s)";
    if (stats.vertices_outside_largest > 0) {
      std::cout << ", " << format_count(stats.vertices_outside_largest)
                << " vertices outside the largest"
                << (largest_component ? " (dropped)" : " (kept)");
    }
    std::cout << "\nwrote " << out << ": n "
              << format_count(result.graph.num_vertices()) << ", edges "
              << format_count(result.graph.num_edges()) << ", deg ∈ ["
              << result.graph.min_degree() << ","
              << result.graph.max_degree() << "], "
              << format_version(result.graph.num_vertices(),
                                result.graph.num_arcs(), bits)
              << '\n';
    if (result.graph.min_degree() == 0) {
      std::cout << "note: the graph has isolated vertices; the walk engine "
                   "needs min degree >= 1 (re-run with --largest-component "
                   "or clean the input)\n";
    }
  } catch (const std::exception& error) {
    std::cerr << "manywalks graph convert: " << error.what() << '\n';
    return 1;
  }
  return 0;
}

int run_info(int argc, char** argv) {
  std::string in;
  bool deep = false;
  bool json = false;
  std::vector<char*> args = take_positional(argc, argv, &in);
  ArgParser parser("manywalks graph info",
                   "print header and degree statistics of an mwg file");
  parser.add_option("in", &in, "input .mwg path (also accepted positionally)")
      .add_flag("deep", &deep,
                "additionally validate the full adjacency (pages in the "
                "whole file)")
      .add_flag("json", &json,
                "emit the same facts as a JSON document on stdout");
  if (!parser.parse(static_cast<int>(args.size()), args.data())) return 1;
  if (in.empty()) {
    std::cerr << "manywalks graph info: missing input file\n";
    return 1;
  }
  try {
    // Shallow loading validates the header and scans only the offsets
    // array; the adjacency region stays untouched on disk.
    const MappedGraph mapped(in, deep ? MappedGraph::Validate::kDeep
                                      : MappedGraph::Validate::kStructure);
    const double mean_degree =
        mapped.num_vertices() > 0
            ? static_cast<double>(mapped.num_arcs()) /
                  static_cast<double>(mapped.num_vertices())
            : 0.0;
    std::uint64_t largest_extent = 0;
    if (mapped.has_block_index()) {
      // The largest extent is what an out-of-core scheduler must fit in
      // its budget; worth surfacing next to the block count.
      const std::span<const std::uint64_t> begins = mapped.block_arc_begin();
      for (std::size_t b = 0; b + 1 < begins.size(); ++b) {
        largest_extent = std::max(largest_extent, begins[b + 1] - begins[b]);
      }
      largest_extent *= sizeof(Vertex);
    }
    if (json) {
      JsonWriter writer(/*pretty=*/true);
      writer.begin_object();
      writer.key("file").value_str(in);
      writer.key("file_bytes").value_u64(mapped.file_bytes());
      writer.key("version").value_u64(mapped.version());
      writer.key("vertices").value_u64(mapped.num_vertices());
      writer.key("edges").value_u64(mapped.num_edges());
      writer.key("arcs").value_u64(mapped.num_arcs());
      writer.key("self_loops").value_u64(mapped.num_loops());
      writer.key("degree").begin_object();
      writer.key("min").value_u64(mapped.min_degree());
      writer.key("max").value_u64(mapped.max_degree());
      writer.key("mean").value_num(mean_degree);
      writer.key("regular").value_bool(mapped.is_regular());
      writer.end_object();
      writer.key("layout").begin_object();
      writer.key("offset_bytes")
          .value_u64(mwg_targets_begin(mapped.num_vertices()) -
                     kMwgHeaderBytes);
      writer.key("adjacency_bytes")
          .value_u64(mapped.num_arcs() * sizeof(Vertex));
      writer.end_object();
      if (mapped.has_block_index()) {
        writer.key("blocks").begin_object();
        writer.key("count").value_u64(mapped.num_blocks());
        writer.key("block_bits").value_u64(mapped.block_bits());
        writer.key("largest_extent_bytes").value_u64(largest_extent);
        writer.end_object();
      } else {
        writer.key("blocks").value_null();
      }
      writer.key("walkable").value_bool(mapped.min_degree() >= 1);
      writer.key("validation").value_str(deep ? "deep" : "structure");
      writer.end_object();
      std::cout << writer.take() << '\n';
      return 0;
    }
    std::cout << "file:        " << in << " (" << format_count(mapped.file_bytes())
              << " bytes; mwg v" << mapped.version() << ", native byte order)\n"
              << "vertices:    " << format_count(mapped.num_vertices()) << '\n'
              << "edges:       " << format_count(mapped.num_edges()) << " ("
              << format_count(mapped.num_arcs()) << " arcs, "
              << format_count(mapped.num_loops()) << " self loops)\n"
              << "degree:      min " << mapped.min_degree() << ", max "
              << mapped.max_degree() << ", mean " << format_double(mean_degree, 4)
              << (mapped.is_regular() ? " (regular)" : "") << '\n'
              << "layout:      "
              << format_count(mwg_targets_begin(mapped.num_vertices()) -
                              kMwgHeaderBytes)
              << " offset bytes + "
              << format_count(mapped.num_arcs() * sizeof(Vertex))
              << " adjacency bytes, memory-mapped\n";
    if (mapped.has_block_index()) {
      std::cout << "blocks:      " << format_count(mapped.num_blocks())
                << " of 2^" << mapped.block_bits()
                << " vertices; largest extent " << format_count(largest_extent)
                << " bytes (schedulable via --block-walk)\n";
    } else {
      std::cout << "blocks:      none (v1 — no block index; upgrade with "
                   "`manywalks graph convert --in="
                << in << " --out=...`)\n";
    }
    std::cout << "walkable:    " << (mapped.min_degree() >= 1 ? "yes" : "NO "
                 "(isolated vertices; the walk engine will refuse to bind)")
              << '\n'
              << "validation:  " << (deep ? "deep (full adjacency checked)"
                                          : "structure (header + offsets)")
              << '\n';
  } catch (const std::exception& error) {
    std::cerr << "manywalks graph info: " << error.what() << '\n';
    return 1;
  }
  return 0;
}

}  // namespace

int graph_tool_main(int argc, char** argv) {
  if (argc < 2) {
    print_graph_usage(std::cerr);
    return 1;
  }
  const std::string_view command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    print_graph_usage(std::cout);
    return 0;
  }
  if (command == "gen") return run_gen(argc - 1, argv + 1);
  if (command == "convert") return run_convert(argc - 1, argv + 1);
  if (command == "info") return run_info(argc - 1, argv + 1);
  std::cerr << "manywalks graph: unknown subcommand '" << command << "'\n\n";
  print_graph_usage(std::cerr);
  return 1;
}

}  // namespace manywalks::cli
