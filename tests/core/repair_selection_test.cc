// Repair selection (solveInvalidTuples pass 1 inside BuildSynthesisPlan)
// chooses one combo per matched-CC signature. Pinned here, row by row, to
// the combos × CCs scan it replaced (testing_fixtures::
// ReferenceRepairSelection) on seeded instances with many signatures,
// ties on the minimum badness, rows with no zero-badness combo and rows
// that match no CC.

#include <algorithm>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "core/plan.h"
#include "core/solver.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace cextend {
namespace {

using testing_fixtures::ReferenceRepairSelection;

struct RepairInstance {
  Table r1;
  Table r2;
  PairSchema names;
  std::vector<CardinalityConstraint> ccs;
};

/// R1: 300 persons over Age/Rel/MultiLing; R2: 24 homes over Area x Type
/// (8 combos, 3 keys each). CCs: one housemate CC per Area on owners (every
/// combo matches one, so owners have no zero-badness combo), plus random
/// age-band CCs over Area or Type (many distinct signatures). Ages 90-99
/// fall in no band, so non-owners there match no CC.
RepairInstance MakeInstance(uint64_t seed) {
  Rng rng(seed);
  Schema r1_schema{{"pid", DataType::kInt64},
                   {"Age", DataType::kInt64},
                   {"Rel", DataType::kString},
                   {"MultiLing", DataType::kInt64},
                   {"hid", DataType::kInt64}};
  Table r1{r1_schema};
  const char* rels[] = {"Owner", "Spouse", "Child"};
  for (int i = 0; i < 300; ++i) {
    CEXTEND_CHECK(r1.AppendRow({Value(i + 1), Value(rng.UniformInt(0, 99)),
                                Value(rels[rng.UniformInt(0, 2)]),
                                Value(rng.UniformInt(0, 1)), Value::Null()})
                      .ok());
  }
  Schema r2_schema{{"hid", DataType::kInt64},
                   {"Area", DataType::kString},
                   {"Type", DataType::kString}};
  Table r2{r2_schema};
  const char* areas[] = {"A", "B", "C", "D"};
  const char* types[] = {"X", "Y"};
  for (int h = 0; h < 24; ++h) {
    CEXTEND_CHECK(
        r2.AppendRow({Value(h + 1), Value(areas[h % 4]), Value(types[h / 4 % 2])})
            .ok());
  }
  auto names = PairSchema::Infer(r1, r2, "pid", "hid", "hid");
  CEXTEND_CHECK(names.ok());

  std::vector<CardinalityConstraint> ccs;
  for (const char* area : areas) {
    CardinalityConstraint cc;
    cc.name = StrFormat("owner_%s", area);
    cc.r1_condition.Eq("Rel", Value("Owner"));
    cc.r2_condition.Eq("Area", Value(area));
    cc.target = 5;
    ccs.push_back(std::move(cc));
  }
  for (int i = 0; i < 10; ++i) {
    int64_t lo = rng.UniformInt(0, 80);
    int64_t hi = std::min<int64_t>(89, lo + rng.UniformInt(5, 30));
    CardinalityConstraint cc;
    cc.name = StrFormat("band_%d", i);
    cc.r1_condition.Between("Age", lo, hi);
    if (rng.UniformInt(0, 1) == 0) {
      cc.r1_condition.Eq("MultiLing", Value(rng.UniformInt(0, 1)));
    }
    if (rng.UniformInt(0, 2) == 0) {
      cc.r2_condition.Eq("Type", Value(types[rng.UniformInt(0, 1)]));
    } else {
      cc.r2_condition.Eq("Area", Value(areas[rng.UniformInt(0, 3)]));
    }
    cc.target = 3;
    ccs.push_back(std::move(cc));
  }
  return RepairInstance{std::move(r1), std::move(r2), std::move(names).value(),
                        std::move(ccs)};
}

class RepairSelectionTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RepairSelectionTest, MatchesCombosTimesCcsReference) {
  RepairInstance inst = MakeInstance(GetParam());
  auto v_join = MakeJoinView(inst.r1, inst.r2, inst.names);
  ASSERT_TRUE(v_join.ok());
  auto combos = ComboIndex::Build(inst.r2, inst.names);
  ASSERT_TRUE(combos.ok());
  ASSERT_EQ(combos->num_combos(), 8u);

  std::vector<uint32_t> invalid;
  for (uint32_t r = 0; r < v_join->NumRows(); ++r) invalid.push_back(r);
  auto reference =
      ReferenceRepairSelection(*v_join, *combos, inst.ccs, invalid);
  ASSERT_TRUE(reference.ok()) << reference.status();

  // Coverage of the cases the memo must get right, measured independently.
  std::vector<BoundPredicate> r1_preds;
  std::vector<std::vector<size_t>> cc_combos;
  for (const CardinalityConstraint& cc : inst.ccs) {
    auto p = BoundPredicate::Bind(cc.r1_condition, *v_join);
    ASSERT_TRUE(p.ok());
    r1_preds.push_back(std::move(p).value());
    auto m = combos->MatchingCombos(cc.r2_condition);
    ASSERT_TRUE(m.ok());
    cc_combos.push_back(std::move(m).value());
  }
  std::set<std::vector<size_t>> signatures;
  size_t no_cc_rows = 0, no_free_rows = 0, tied_rows = 0;
  for (uint32_t row : invalid) {
    std::vector<size_t> sig;
    std::vector<int> badness(combos->num_combos(), 0);
    for (size_t c = 0; c < inst.ccs.size(); ++c) {
      if (!r1_preds[c].Matches(*v_join, row)) continue;
      sig.push_back(c);
      for (size_t i : cc_combos[c]) ++badness[i];
    }
    int best = *std::min_element(badness.begin(), badness.end());
    no_cc_rows += sig.empty();
    no_free_rows += best > 0;
    tied_rows += std::count(badness.begin(), badness.end(), best) > 1;
    signatures.insert(std::move(sig));
  }
  EXPECT_GE(signatures.size(), 10u);
  EXPECT_GT(no_cc_rows, 0u);
  EXPECT_GT(no_free_rows, 0u);
  EXPECT_GT(tied_rows, 0u);

  PlanBuildTimings timings;
  auto plan = BuildSynthesisPlan(*v_join, inst.r2, inst.names, inst.ccs,
                                 invalid, SynthesisPlanOptions{}, &*combos,
                                 &timings);
  ASSERT_TRUE(plan.ok()) << plan.status();
  EXPECT_EQ(timings.repair_signatures, signatures.size());
  for (size_t k = 0; k < invalid.size(); ++k) {
    uint32_t row = invalid[k];
    EXPECT_EQ(plan->combo_table[plan->row_combo[row]],
              combos->combo_codes((*reference)[k]))
        << "row " << row;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepairSelectionTest,
                         ::testing::Range<uint64_t>(1, 7));

TEST(EmptyR2Test, InvalidRowsFailInsteadOfCrashing) {
  // A header-only R2 gives phase I no combo to complete any row with, so
  // rows stay invalid and repair selection has nothing to draw from.
  RepairInstance inst = MakeInstance(1);
  Table empty_r2{inst.r2.schema()};
  auto solution = SolveCExtension(inst.r1, empty_r2, inst.names, inst.ccs,
                                  /*dcs=*/{}, SolverOptions{});
  ASSERT_FALSE(solution.ok());
  EXPECT_EQ(solution.status().code(), StatusCode::kFailedPrecondition)
      << solution.status();
}

}  // namespace
}  // namespace cextend
