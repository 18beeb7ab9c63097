#include "core/experiments.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "graph/generators.hpp"
#include "util/check.hpp"

namespace manywalks {

std::string cell_text(const ResultCell& cell) {
  struct Visitor {
    std::string operator()(std::monostate) const { return "-"; }
    std::string operator()(const std::string& text) const { return text; }
    std::string operator()(std::uint64_t value) const {
      return format_count(value);
    }
    std::string operator()(const RealCell& value) const {
      return format_double(value.value, value.sig);
    }
    std::string operator()(const MeanPmCell& value) const {
      std::string text = format_mean_pm(value.mean, value.half_width, value.sig);
      if (value.censored > 0) text += "†";  // lower bound: censored trials
      return text;
    }
    std::string operator()(bool value) const {
      return value ? "true" : "false";
    }
  };
  return std::visit(Visitor{}, cell);
}

ResultTable& ResultTable::add_column(std::string name, bool left) {
  MW_REQUIRE(rows_.empty(), "declare all columns before adding rows");
  columns_.push_back(Column{std::move(name), left});
  return *this;
}

ResultTable& ResultTable::begin_row() {
  MW_REQUIRE(!columns_.empty(), "declare columns before rows");
  rows_.push_back(Row{{}, pending_rule_});
  pending_rule_ = false;
  return *this;
}

ResultTable& ResultTable::rule() {
  pending_rule_ = true;
  return *this;
}

ResultTable& ResultTable::cell(ResultCell cell) {
  MW_REQUIRE(!rows_.empty(), "begin_row before adding cells");
  MW_REQUIRE(rows_.back().cells.size() < columns_.size(),
             "row already has " << columns_.size() << " cells");
  rows_.back().cells.push_back(std::move(cell));
  return *this;
}

ResultTable& ResultTable::text(std::string value) {
  return cell(ResultCell{std::move(value)});
}

ResultTable& ResultTable::count(std::uint64_t value) {
  return cell(ResultCell{value});
}

ResultTable& ResultTable::real(double value, int sig) {
  return cell(ResultCell{RealCell{value, sig}});
}

ResultTable& ResultTable::mean_pm(double mean, double half_width, int sig,
                                  std::uint64_t censored) {
  return cell(ResultCell{MeanPmCell{mean, half_width, sig, censored}});
}

ResultTable& ResultTable::mean_pm(const McResult& result, int sig) {
  return mean_pm(result.ci.mean, result.ci.half_width, sig, result.censored);
}

ResultTable& ResultTable::mean_pm(const SpeedupEstimate& estimate, int sig) {
  return mean_pm(estimate.speedup, estimate.half_width, sig,
                 estimate.censored);
}

ResultTable& ResultTable::blank() { return cell(ResultCell{}); }

std::uint64_t count_censored_cells(const ExperimentResult& result) {
  std::uint64_t censored_cells = 0;
  for (const ResultTable& table : result.tables) {
    for (const ResultTable::Row& row : table.rows()) {
      for (const ResultCell& cell : row.cells) {
        if (const auto* pm = std::get_if<MeanPmCell>(&cell)) {
          if (pm->censored > 0) ++censored_cells;
        }
      }
    }
  }
  return censored_cells;
}

TextTable to_text_table(const ResultTable& table) {
  TextTable text(table.title());
  for (const ResultTable::Column& column : table.columns()) {
    text.add_column(column.name, column.left ? TextTable::Align::kLeft
                                             : TextTable::Align::kRight);
  }
  for (const ResultTable::Row& row : table.rows()) {
    if (row.rule_before) text.rule();
    text.begin_row();
    for (const ResultCell& cell : row.cells) text.cell(cell_text(cell));
  }
  return text;
}

Table1Row run_table1_row(const FamilyInstance& instance,
                         std::span<const unsigned> ks,
                         const ExperimentOptions& options, ThreadPool* pool) {
  Table1Row row;
  row.name = instance.name;
  row.n = instance.graph.num_vertices();
  row.m = instance.graph.num_edges();
  row.theory = instance.theory;

  ProfileOptions profile_options;
  profile_options.mc = options.mc;
  profile_options.mc.seed = mix64(options.seed ^ 0x7ab1e1ULL);
  profile_options.cover = options.cover;
  profile_options.hmax_exact_limit = options.hmax_exact_limit;
  profile_options.mixing_cap = options.mixing_cap;
  row.profile = profile_graph(instance, profile_options, pool);

  McOptions mc = options.mc;
  mc.seed = mix64(options.seed ^ 0x5eedcafeULL);
  row.speedups = estimate_speedup_curve(instance.graph, instance.start, ks, mc,
                                        options.cover, pool);
  return row;
}

ResultTable make_table1_result_table(std::span<const Table1Row> rows,
                                     std::span<const unsigned> ks) {
  ResultTable table("table1",
                    "Table 1 — measured cover/hitting/mixing times and "
                    "speed-ups (paper orders in parentheses)");
  table.add_column("graph family", /*left=*/true)
      .add_column("n")
      .add_column("cover C")
      .add_column("C theory")
      .add_column("h_max")
      .add_column("h theory")
      .add_column("t_mix")
      .add_column("gap C/h");
  for (unsigned k : ks) table.add_column("S^" + std::to_string(k));
  table.add_column("speed-up (paper)", /*left=*/true);

  for (const Table1Row& row : rows) {
    table.begin_row();
    table.text(row.name);
    table.count(row.n);
    table.mean_pm(row.profile.cover);
    table.text(format_double(row.theory.cover) + " (" +
               row.theory.cover_formula + ")");
    if (row.profile.h_max.exact) {
      table.real(row.profile.h_max.value);
    } else {
      table.text(format_mean_pm(row.profile.h_max.value,
                                row.profile.h_max.half_width) +
                 "*");
    }
    table.text(format_double(row.theory.h_max) + " (" +
               row.theory.hitting_formula + ")");
    {
      std::ostringstream os;
      if (!row.profile.mixing.converged) {
        os << "> " << format_count(row.profile.mixing.time);
      } else {
        os << format_count(row.profile.mixing.time);
      }
      if (row.profile.mixing.laziness > 0.0) os << " (lazy)";
      table.text(os.str());
    }
    table.real(row.profile.gap);
    for (const SpeedupEstimate& s : row.speedups) {
      table.mean_pm(s);
    }
    table.text(row.theory.speedup_regime);
  }
  return table;
}

SpeedupCurveResult run_speedup_curve(const FamilyInstance& instance,
                                     std::span<const unsigned> ks,
                                     const ExperimentOptions& options,
                                     ThreadPool* pool) {
  SpeedupCurveResult result;
  result.name = instance.name;
  result.n = instance.graph.num_vertices();
  result.start = instance.start;
  McOptions mc = options.mc;
  mc.seed = mix64(options.seed ^ 0xc0de5eedULL);
  result.points = estimate_speedup_curve(instance.graph, instance.start, ks,
                                         mc, options.cover, pool);
  if (!result.points.empty()) result.single = result.points.front().single;
  return result;
}

TextTable render_speedup_curve(const SpeedupCurveResult& result,
                               const std::string& reference_header,
                               const std::vector<double>& reference_values) {
  std::ostringstream title;
  title << "Speed-up curve on " << result.name << " from vertex "
        << result.start << " (C = "
        << format_mean_pm(result.single.ci.mean, result.single.ci.half_width)
        << ")";
  TextTable table(title.str());
  table.add_column("k").add_column("C^k").add_column("S^k = C/C^k");
  const bool have_reference = !reference_header.empty();
  if (have_reference) {
    MW_REQUIRE(reference_values.size() == result.points.size(),
               "one reference value per point required");
    table.add_column(reference_header);
    table.add_column("S^k / ref");
  }
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    const SpeedupEstimate& p = result.points[i];
    // Same dagger convention as the structured cells: a censored estimate
    // is a lower bound, never rendered as clean.
    table.begin_row();
    table.cell(static_cast<std::uint64_t>(p.k));
    table.cell(format_mean_pm(p.multi.ci.mean, p.multi.ci.half_width) +
               (p.multi.censored > 0 ? "†" : ""));
    table.cell(format_mean_pm(p.speedup, p.half_width, 3) +
               (p.censored > 0 ? "†" : ""));
    if (have_reference) {
      table.cell(format_double(reference_values[i]));
      table.cell(format_double(
          reference_values[i] > 0 ? p.speedup / reference_values[i] : 0.0, 3));
    }
  }
  return table;
}

std::uint64_t barbell_walk_count(double c_k, Vertex n) {
  MW_REQUIRE(std::isfinite(c_k) && c_k > 0.0,
             "c_k must be positive and finite, got " << c_k);
  const double k =
      std::max(2.0, std::ceil(c_k * std::log(static_cast<double>(n))));
  if (k >= std::ldexp(1.0, 64)) return UINT64_MAX;
  return static_cast<std::uint64_t>(k);
}

BarbellResult run_barbell_experiment(std::span<const Vertex> ns, double c_k,
                                     const ExperimentOptions& options,
                                     ThreadPool* pool) {
  BarbellResult result;
  for (Vertex n : ns) {
    FamilyInstance instance =
        make_family_instance(GraphFamily::kBarbell, n, options.seed);
    const Vertex actual_n = instance.graph.num_vertices();
    BarbellPoint point;
    point.n = actual_n;
    const std::uint64_t k = barbell_walk_count(c_k, actual_n);
    MW_REQUIRE(k <= std::numeric_limits<unsigned>::max(),
               "c_k = " << c_k << " asks for " << k << " walks at n = "
                        << actual_n);
    point.k = static_cast<unsigned>(k);

    McOptions mc = options.mc;
    mc.seed = mix64(options.seed ^ (0xbabe11ULL + actual_n));
    point.single = estimate_cover_time(instance.graph, instance.start, mc,
                                       options.cover, pool);
    mc.seed = mix64(options.seed ^ (0xbabe22ULL + actual_n));
    point.multi = estimate_k_cover_time(instance.graph, instance.start,
                                        point.k, mc, options.cover, pool);
    const double nn = static_cast<double>(actual_n);
    point.single_over_n2 = point.single.ci.mean / (nn * nn);
    point.multi_over_n = point.multi.ci.mean / nn;
    point.speedup = point.single.ci.mean / point.multi.ci.mean;
    result.points.push_back(std::move(point));
  }
  return result;
}

ResultTable make_barbell_result_table(const BarbellResult& result) {
  ResultTable table("barbell",
                    "Barbell B_n from the center (Thm 7 / Fig 1): C = Θ(n²) "
                    "vs C^k = O(n) at k = Θ(log n)");
  table.add_column("n")
      .add_column("k")
      .add_column("C (1 walk)")
      .add_column("C/n²")
      .add_column("C^k")
      .add_column("C^k/n")
      .add_column("speed-up");
  for (const BarbellPoint& p : result.points) {
    table.begin_row();
    table.count(p.n);
    table.count(p.k);
    table.mean_pm(p.single);
    table.real(p.single_over_n2, 3);
    table.mean_pm(p.multi);
    table.real(p.multi_over_n, 3);
    table.real(p.speedup, 3);
  }
  return table;
}

}  // namespace manywalks
