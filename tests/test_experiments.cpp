#include "core/experiments.hpp"

#include <gtest/gtest.h>

namespace manywalks {
namespace {

ExperimentOptions quick_options(std::uint64_t trials) {
  ExperimentOptions options;
  options.mc.min_trials = trials;
  options.mc.max_trials = trials;
  options.mc.seed = 33;
  options.mixing_cap = 100'000;
  return options;
}

TEST(Table1Experiment, RowIsFullyPopulated) {
  const FamilyInstance inst = make_family_instance(GraphFamily::kComplete, 64);
  const std::vector<unsigned> ks = {2, 4};
  const Table1Row row = run_table1_row(inst, ks, quick_options(200));
  EXPECT_EQ(row.name, inst.name);
  EXPECT_EQ(row.n, 64u);
  EXPECT_GT(row.m, 0u);
  EXPECT_GT(row.profile.cover.ci.mean, 0.0);
  EXPECT_GT(row.profile.h_max.value, 0.0);
  EXPECT_TRUE(row.profile.mixing.converged);
  ASSERT_EQ(row.speedups.size(), 2u);
  EXPECT_EQ(row.speedups[0].k, 2u);
  EXPECT_EQ(row.speedups[1].k, 4u);
  EXPECT_GT(row.speedups[1].speedup, row.speedups[0].speedup * 0.9);
}

TEST(Table1Experiment, RenderContainsFamilyAndColumns) {
  const FamilyInstance inst = make_family_instance(GraphFamily::kCycle, 33);
  const std::vector<unsigned> ks = {2};
  const Table1Row row = run_table1_row(inst, ks, quick_options(100));
  const TextTable table =
      to_text_table(make_table1_result_table(std::vector<Table1Row>{row}, ks));
  const std::string text = table.str();
  EXPECT_NE(text.find("cycle"), std::string::npos);
  EXPECT_NE(text.find("S^2"), std::string::npos);
  EXPECT_NE(text.find("t_mix"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 1u);
}

TEST(SpeedupCurveExperiment, PointsOrderedAsRequested) {
  const FamilyInstance inst = make_family_instance(GraphFamily::kCycle, 21);
  const std::vector<unsigned> ks = {1, 2, 8};
  const auto result = run_speedup_curve(inst, ks, quick_options(200));
  ASSERT_EQ(result.points.size(), 3u);
  EXPECT_EQ(result.points[0].k, 1u);
  EXPECT_EQ(result.points[2].k, 8u);
  EXPECT_GT(result.single.ci.mean, 0.0);
}

TEST(SpeedupCurveExperiment, RenderWithReference) {
  const FamilyInstance inst = make_family_instance(GraphFamily::kComplete, 32);
  const std::vector<unsigned> ks = {2, 4};
  const auto result = run_speedup_curve(inst, ks, quick_options(150));
  const TextTable table =
      render_speedup_curve(result, "k (linear ref)", {2.0, 4.0});
  const std::string text = table.str();
  EXPECT_NE(text.find("k (linear ref)"), std::string::npos);
  EXPECT_NE(text.find("S^k"), std::string::npos);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(SpeedupCurveExperiment, RenderWithoutReference) {
  const FamilyInstance inst = make_family_instance(GraphFamily::kComplete, 32);
  const std::vector<unsigned> ks = {2};
  const auto result = run_speedup_curve(inst, ks, quick_options(100));
  const TextTable table = render_speedup_curve(result, "", {});
  EXPECT_EQ(table.num_columns(), 3u);
}

TEST(SpeedupCurveExperiment, ReferenceSizeMismatchThrows) {
  const FamilyInstance inst = make_family_instance(GraphFamily::kComplete, 32);
  const std::vector<unsigned> ks = {2};
  const auto result = run_speedup_curve(inst, ks, quick_options(100));
  EXPECT_THROW(render_speedup_curve(result, "ref", {1.0, 2.0}),
               std::invalid_argument);
}

TEST(BarbellExperiment, ProducesPointPerSize) {
  const std::vector<Vertex> ns = {31, 61};
  const auto result = run_barbell_experiment(ns, 3.0, quick_options(100));
  ASSERT_EQ(result.points.size(), 2u);
  for (const auto& p : result.points) {
    EXPECT_GT(p.k, 2u);
    EXPECT_GT(p.single.ci.mean, 0.0);
    EXPECT_GT(p.speedup, 1.0);
  }
  // Larger barbells have larger speed-up at k = Θ(log n).
  EXPECT_GT(result.points[1].speedup, result.points[0].speedup);
}

TEST(BarbellExperiment, RenderSmokes) {
  const std::vector<Vertex> ns = {31};
  const auto result = run_barbell_experiment(ns, 3.0, quick_options(60));
  const std::string text =
      to_text_table(make_barbell_result_table(result)).str();
  EXPECT_NE(text.find("C^k/n"), std::string::npos);
  EXPECT_NE(text.find("31"), std::string::npos);
}

TEST(Experiments, DeterministicWithSameSeed) {
  const FamilyInstance inst = make_family_instance(GraphFamily::kCycle, 15);
  const std::vector<unsigned> ks = {2};
  const auto a = run_speedup_curve(inst, ks, quick_options(100));
  const auto b = run_speedup_curve(inst, ks, quick_options(100));
  EXPECT_DOUBLE_EQ(a.points[0].speedup, b.points[0].speedup);
}

}  // namespace
}  // namespace manywalks
