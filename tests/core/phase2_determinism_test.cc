// Phase II must be a pure function of (input, seed): the same seed at 1, 2,
// and 8 coloring threads — and across repeated runs — must produce identical
// r1_hat / r2_hat tables. Historically this broke in two ways: fresh keys
// were handed out from a shared counter in thread-scheduling order, and the
// serial path threaded one RNG across partitions while the parallel path
// derived per-task RNGs.

#include <vector>

#include <gtest/gtest.h>

#include "constraints/metrics.h"
#include "core/phase2.h"
#include "test_util.h"
#include "util/rng.h"

namespace cextend {
namespace {

using testing_fixtures::Phase2Tables;

struct Instance {
  Table persons;
  Table housing;
  PairSchema names;
  std::vector<DenialConstraint> dcs;
  Table v_join;
  std::vector<uint32_t> invalid;
};

/// 400 persons across 8 areas with 2 houses each: crowded partitions (many
/// fresh keys per partition), ~10% invalid rows (exercises the repair path),
/// clique + ordering + arity-3 DCs (implicit, indexed and hypergraph layers).
Instance MakeInstance() {
  Schema persons_schema{{"pid", DataType::kInt64},
                        {"Age", DataType::kInt64},
                        {"Rel", DataType::kString},
                        {"ML", DataType::kInt64},
                        {"hid", DataType::kInt64}};
  Table persons{persons_schema};
  Rng rng(123);
  const char* rels[] = {"Owner", "Spouse", "Child", "Other"};
  constexpr size_t kPersons = 400;
  for (size_t i = 0; i < kPersons; ++i) {
    CEXTEND_CHECK(persons
                      .AppendRow({Value(static_cast<int64_t>(i + 1)),
                                  Value(rng.UniformInt(0, 90)),
                                  Value(rels[rng.UniformInt(0, 3)]),
                                  Value(rng.UniformInt(0, 1)), Value::Null()})
                      .ok());
  }
  Schema housing_schema{{"hid", DataType::kInt64}, {"Area", DataType::kString}};
  Table housing{housing_schema};
  constexpr size_t kAreas = 8;
  for (size_t h = 0; h < 2 * kAreas; ++h) {
    std::string area = "A" + std::to_string(h / 2);
    CEXTEND_CHECK(
        housing.AppendRow({Value(static_cast<int64_t>(h + 1)), Value(area)})
            .ok());
  }
  auto names = PairSchema::Infer(persons, housing, "pid", "hid", "hid");
  CEXTEND_CHECK(names.ok());

  std::vector<DenialConstraint> dcs;
  {
    DenialConstraint dc(2, "owner-owner");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Owner"));
    dcs.push_back(std::move(dc));
  }
  {
    DenialConstraint dc(2, "age-gap");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Spouse"));
    dc.Binary(1, "Age", CompareOp::kLt, 0, "Age", -40);
    dcs.push_back(std::move(dc));
  }
  {
    DenialConstraint dc(3, "three-ml-children");
    for (int var = 0; var < 3; ++var) {
      dc.Unary(var, "Rel", CompareOp::kEq, Value("Child"));
      dc.Unary(var, "ML", CompareOp::kEq, Value(int64_t{1}));
    }
    dcs.push_back(std::move(dc));
  }

  auto v = MakeJoinView(persons, housing, names.value());
  CEXTEND_CHECK(v.ok());
  Table v_join = std::move(v).value();
  size_t area_v = v_join.schema().IndexOrDie("Area");
  size_t area_r2 = housing.schema().IndexOrDie("Area");
  std::vector<uint32_t> invalid;
  for (size_t r = 0; r < kPersons; ++r) {
    if (r % 10 == 0) {
      invalid.push_back(static_cast<uint32_t>(r));
      continue;
    }
    // Round-robin areas; codes are shared with the housing dictionary.
    v_join.SetCode(r, area_v, housing.GetCode(2 * (r % kAreas), area_r2));
  }
  return Instance{std::move(persons),       std::move(housing),
                  std::move(names).value(), std::move(dcs),
                  std::move(v_join),        std::move(invalid)};
}

Phase2Tables RunAt(const Instance& instance, size_t threads,
                   bool random_assignment = false) {
  Table v_join = instance.v_join.Clone();  // planning mutates invalid rows
  Phase2Options options;
  options.num_threads = threads;
  options.seed = 9;
  options.random_assignment = random_assignment;
  auto result = testing_fixtures::ExecutePhase2(
      v_join, instance.persons, instance.housing, instance.names, instance.dcs,
      {}, instance.invalid, options);
  CEXTEND_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

void ExpectTablesEqual(const Table& a, const Table& b, const char* what) {
  ASSERT_EQ(a.NumRows(), b.NumRows()) << what;
  ASSERT_EQ(a.NumColumns(), b.NumColumns()) << what;
  for (size_t r = 0; r < a.NumRows(); ++r) {
    for (size_t c = 0; c < a.NumColumns(); ++c) {
      ASSERT_EQ(a.GetCode(r, c), b.GetCode(r, c))
          << what << " differs at row " << r << ", col " << c;
    }
  }
}

/// Every R2 tuple phase II added is referenced by at least one R1 row: the
/// fresh-key pass mints only the keys its coloring used.
void ExpectEveryFreshKeyReferenced(const Instance& instance,
                                   const Phase2Tables& tables) {
  auto orphans = CountUnreferencedFreshTuples(
      tables.r1_hat, "hid", tables.r2_hat, "hid", instance.housing.NumRows());
  ASSERT_TRUE(orphans.ok()) << orphans.status();
  EXPECT_EQ(orphans.value(), 0u);
}

TEST(Phase2DeterminismTest, SameSeedIdenticalAcrossThreadCounts) {
  Instance instance = MakeInstance();
  Phase2Tables t1 = RunAt(instance, 1);
  // Crowded partitions must actually exercise fresh-key allocation — without
  // skips this test would vacuously pass.
  EXPECT_GT(t1.stats.skipped_vertices, 0u);
  EXPECT_GT(t1.stats.new_r2_tuples, 0u);
  EXPECT_GT(t1.stats.invalid_rows, 0u);
  ExpectEveryFreshKeyReferenced(instance, t1);
  for (size_t threads : {size_t{2}, size_t{8}}) {
    Phase2Tables tn = RunAt(instance, threads);
    ExpectEveryFreshKeyReferenced(instance, tn);
    ExpectTablesEqual(t1.r1_hat, tn.r1_hat, "r1_hat");
    ExpectTablesEqual(t1.r2_hat, tn.r2_hat, "r2_hat");
    EXPECT_EQ(t1.stats.skipped_vertices, tn.stats.skipped_vertices);
    EXPECT_EQ(t1.stats.new_r2_tuples, tn.stats.new_r2_tuples);
  }
}

TEST(Phase2DeterminismTest, RepeatedRunsAreStable) {
  Instance instance = MakeInstance();
  Phase2Tables first = RunAt(instance, 8);
  for (int trial = 0; trial < 3; ++trial) {
    Phase2Tables again = RunAt(instance, 8);
    ExpectTablesEqual(first.r1_hat, again.r1_hat, "r1_hat");
    ExpectTablesEqual(first.r2_hat, again.r2_hat, "r2_hat");
  }
}

TEST(Phase2DeterminismTest, RandomAssignmentMatchesAcrossThreadCounts) {
  // The baseline mode draws keys from the per-partition RNG streams; the
  // serial path must derive them exactly like the parallel path.
  Instance instance = MakeInstance();
  Phase2Tables t1 = RunAt(instance, 1, /*random_assignment=*/true);
  Phase2Tables t4 = RunAt(instance, 4, /*random_assignment=*/true);
  ExpectTablesEqual(t1.r1_hat, t4.r1_hat, "r1_hat");
  ExpectTablesEqual(t1.r2_hat, t4.r2_hat, "r2_hat");
  ExpectEveryFreshKeyReferenced(instance, t1);
}

}  // namespace
}  // namespace cextend
