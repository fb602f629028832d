#include "core/solver.h"

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "constraints/metrics.h"
#include "core/stream_checkpoint.h"
#include "test_util.h"

namespace cextend {
namespace {

using testing_fixtures::MakePaperExample;
using testing_fixtures::PaperExample;

TEST(SolverTest, PaperRunningExampleEndToEnd) {
  PaperExample ex = MakePaperExample();
  auto solution = SolveCExtension(ex.persons, ex.housing, ex.names, ex.ccs,
                                  ex.dcs, {});
  ASSERT_TRUE(solution.ok()) << solution.status();
  // All CCs satisfied (the instance is realizable: Figure 3).
  auto cc_report = EvaluateCcError(ex.ccs, solution->v_join);
  ASSERT_TRUE(cc_report.ok());
  EXPECT_EQ(cc_report->num_exact, ex.ccs.size()) << cc_report->Summary();
  // All DCs satisfied (guaranteed by Prop. 5.5).
  auto dc_report = EvaluateDcError(ex.dcs, solution->r1_hat, "hid");
  ASSERT_TRUE(dc_report.ok());
  EXPECT_EQ(dc_report->error, 0.0) << dc_report->Summary();
  // Join identity.
  auto mismatches = CountJoinMismatches(solution->r1_hat, "hid",
                                        solution->r2_hat, "hid",
                                        solution->v_join, {"Area"});
  ASSERT_TRUE(mismatches.ok());
  EXPECT_EQ(mismatches.value(), 0u);
}

TEST(SolverTest, StatsArePopulated) {
  PaperExample ex = MakePaperExample();
  auto solution = SolveCExtension(ex.persons, ex.housing, ex.names, ex.ccs,
                                  ex.dcs, {});
  ASSERT_TRUE(solution.ok());
  const SolveStats& stats = solution->stats;
  EXPECT_GT(stats.total_seconds, 0.0);
  EXPECT_GE(stats.phase1_seconds, 0.0);
  EXPECT_GE(stats.phase2_seconds, 0.0);
  EXPECT_EQ(stats.phase1.ccs_to_hasse + stats.phase1.ccs_to_ilp,
            ex.ccs.size());
  EXPECT_FALSE(stats.Summary().empty());
  EXPECT_FALSE(stats.BreakdownTable().empty());
}

TEST(SolverTest, AnyDegradationReadsEveryLadderCounter) {
  SolveStats clean;
  EXPECT_FALSE(clean.AnyDegradation());
  EXPECT_EQ(clean.Summary().find("ladder("), std::string::npos);
  auto degraded = [](auto set) {
    SolveStats stats;
    set(stats);
    return stats.AnyDegradation() &&
           stats.Summary().find("ladder(") != std::string::npos;
  };
  EXPECT_TRUE(
      degraded([](SolveStats& s) { s.phase2.naive_oracle_fallbacks = 1; }));
  EXPECT_TRUE(
      degraded([](SolveStats& s) { s.phase2.biclique_overflows = 1; }));
  EXPECT_TRUE(
      degraded([](SolveStats& s) { s.phase2.scan_probe_repairs = 1; }));
  EXPECT_TRUE(
      degraded([](SolveStats& s) { s.phase2.shard_regenerations = 1; }));
  EXPECT_TRUE(
      degraded([](SolveStats& s) { s.phase1.ilp.cold_fallbacks = 1; }));
}

TEST(SolverTest, DeterministicGivenSeed) {
  PaperExample ex = MakePaperExample();
  SolverOptions options;
  options.seed = 1234;
  auto a = SolveCExtension(ex.persons, ex.housing, ex.names, ex.ccs, ex.dcs,
                           options);
  auto b = SolveCExtension(ex.persons, ex.housing, ex.names, ex.ccs, ex.dcs,
                           options);
  ASSERT_TRUE(a.ok() && b.ok());
  size_t hid_col = a->r1_hat.schema().IndexOrDie("hid");
  for (size_t r = 0; r < a->r1_hat.NumRows(); ++r) {
    EXPECT_EQ(a->r1_hat.GetCode(r, hid_col), b->r1_hat.GetCode(r, hid_col));
  }
}

TEST(SolverTest, NoConstraintsStillCompletes) {
  PaperExample ex = MakePaperExample();
  auto solution =
      SolveCExtension(ex.persons, ex.housing, ex.names, {}, {}, {});
  ASSERT_TRUE(solution.ok());
  size_t hid_col = solution->r1_hat.schema().IndexOrDie("hid");
  for (size_t r = 0; r < solution->r1_hat.NumRows(); ++r) {
    EXPECT_FALSE(solution->r1_hat.IsNull(r, hid_col));
  }
}

TEST(SolverTest, DcOnlyInstanceKeepsDcErrorZero) {
  PaperExample ex = MakePaperExample();
  auto solution =
      SolveCExtension(ex.persons, ex.housing, ex.names, {}, ex.dcs, {});
  ASSERT_TRUE(solution.ok());
  auto dc_report = EvaluateDcError(ex.dcs, solution->r1_hat, "hid");
  ASSERT_TRUE(dc_report.ok());
  EXPECT_EQ(dc_report->error, 0.0);
}

TEST(SolverTest, ExecutionCountsPrepareTimeAsPartitioning) {
  // Both execution entry points fold PreparePlan's time into the
  // "Partitioning" breakdown row on top of the planner's layout time.
  PaperExample ex = MakePaperExample();
  const std::string stream_path = ::testing::TempDir() + "/cextend_solver.s";
  const DurableStreamSpec spec{stream_path, stream_path + ".manifest", false};
  for (bool durable : {false, true}) {
    auto planned =
        PlanCExtension(ex.persons, ex.housing, ex.names, ex.ccs, ex.dcs, {});
    ASSERT_TRUE(planned.ok()) << planned.status();
    const double planned_seconds = planned->stats.phase2.partition_seconds;
    auto solution =
        durable ? ExecuteCExtensionPlanDurable(std::move(planned).value(),
                                               ex.persons, ex.housing, ex.names,
                                               ex.dcs, spec, {})
                : ExecuteCExtensionPlan(std::move(planned).value(), ex.persons,
                                        ex.housing, ex.names, ex.dcs, {});
    ASSERT_TRUE(solution.ok()) << solution.status();
    EXPECT_GT(solution->stats.phase2.partition_seconds, planned_seconds)
        << (durable ? "durable" : "plain");
  }
  std::remove(spec.stream_path.c_str());
  std::remove(spec.manifest_path.c_str());
}

TEST(SolverTest, ValidatesSchema) {
  PaperExample ex = MakePaperExample();
  PairSchema bad = ex.names;
  bad.fk = "wrong";
  EXPECT_FALSE(
      SolveCExtension(ex.persons, ex.housing, bad, ex.ccs, ex.dcs, {}).ok());
}

}  // namespace
}  // namespace cextend
