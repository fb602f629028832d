// Shared fixtures: the paper's running example (Figures 1 and 2) and small
// helpers used across test binaries.

#ifndef CEXTEND_TESTS_TEST_UTIL_H_
#define CEXTEND_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "constraints/cardinality_constraint.h"
#include "constraints/denial_constraint.h"
#include "constraints/metrics.h"
#include "core/join_view.h"
#include "core/phase2.h"
#include "core/plan.h"
#include "core/shard_executor.h"
#include "relational/table.h"
#include "util/logging.h"
#include "util/statusor.h"

namespace cextend {
namespace testing_fixtures {

/// The database D of Figure 1 plus the constraints of Figure 2.
struct PaperExample {
  Table persons;   // R1: pid, Age, Rel, MultiLing, hid (hid all NULL)
  Table housing;   // R2: hid, Area
  PairSchema names;
  std::vector<CardinalityConstraint> ccs;  // CC1..CC4 (Figure 2b)
  std::vector<DenialConstraint> dcs;       // Figure 2a
};

inline PaperExample MakePaperExample() {
  Schema persons_schema{{"pid", DataType::kInt64},
                        {"Age", DataType::kInt64},
                        {"Rel", DataType::kString},
                        {"MultiLing", DataType::kInt64},
                        {"hid", DataType::kInt64}};
  Table persons{persons_schema};
  struct Row {
    int64_t pid, age;
    const char* rel;
    int64_t multi;
  };
  const Row rows[] = {
      {1, 75, "Owner", 0},  {2, 75, "Owner", 1},  {3, 25, "Owner", 0},
      {4, 25, "Owner", 1},  {5, 24, "Spouse", 0}, {6, 10, "Child", 1},
      {7, 10, "Child", 1},  {8, 30, "Owner", 0},  {9, 30, "Owner", 1},
  };
  for (const Row& r : rows) {
    CEXTEND_CHECK(persons
                      .AppendRow({Value(r.pid), Value(r.age), Value(r.rel),
                                  Value(r.multi), Value::Null()})
                      .ok());
  }

  Schema housing_schema{{"hid", DataType::kInt64}, {"Area", DataType::kString}};
  Table housing{housing_schema};
  for (int64_t hid = 1; hid <= 6; ++hid) {
    const char* area = hid <= 4 ? "Chicago" : "NYC";
    CEXTEND_CHECK(housing.AppendRow({Value(hid), Value(area)}).ok());
  }

  PaperExample ex{std::move(persons), std::move(housing), {}, {}, {}};
  auto names = PairSchema::Infer(ex.persons, ex.housing, "pid", "hid", "hid");
  CEXTEND_CHECK(names.ok());
  ex.names = std::move(names).value();

  // Figure 2b.
  {
    CardinalityConstraint cc;
    cc.name = "CC1";
    cc.r1_condition.Eq("Rel", Value("Owner"));
    cc.r2_condition.Eq("Area", Value("Chicago"));
    cc.target = 4;
    ex.ccs.push_back(cc);
  }
  {
    CardinalityConstraint cc;
    cc.name = "CC2";
    cc.r1_condition.Eq("Rel", Value("Owner"));
    cc.r2_condition.Eq("Area", Value("NYC"));
    cc.target = 2;
    ex.ccs.push_back(cc);
  }
  {
    CardinalityConstraint cc;
    cc.name = "CC3";
    cc.r1_condition.Le("Age", Value(int64_t{24}));
    cc.r2_condition.Eq("Area", Value("Chicago"));
    cc.target = 3;
    ex.ccs.push_back(cc);
  }
  {
    CardinalityConstraint cc;
    cc.name = "CC4";
    cc.r1_condition.Eq("MultiLing", Value(int64_t{1}));
    cc.r2_condition.Eq("Area", Value("Chicago"));
    cc.target = 4;
    ex.ccs.push_back(cc);
  }

  // Figure 2a.
  {
    DenialConstraint dc(2, "DC_O_O");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Owner"));
    ex.dcs.push_back(std::move(dc));
  }
  {
    DenialConstraint dc(2, "DC_O_S_low");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Spouse"));
    dc.Binary(1, "Age", CompareOp::kLt, 0, "Age", -50);
    ex.dcs.push_back(std::move(dc));
  }
  {
    DenialConstraint dc(2, "DC_O_S_up");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Spouse"));
    dc.Binary(1, "Age", CompareOp::kGt, 0, "Age", 50);
    ex.dcs.push_back(std::move(dc));
  }
  {
    DenialConstraint dc(2, "DC_O_C_low");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(0, "MultiLing", CompareOp::kEq, Value(int64_t{1}));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Child"));
    dc.Binary(1, "Age", CompareOp::kLt, 0, "Age", -50);
    ex.dcs.push_back(std::move(dc));
  }
  {
    DenialConstraint dc(2, "DC_O_C_up");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(0, "MultiLing", CompareOp::kEq, Value(int64_t{1}));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Child"));
    dc.Binary(1, "Age", CompareOp::kGt, 0, "Age", -12);
    ex.dcs.push_back(std::move(dc));
  }
  return ex;
}

/// Phase II's output tables and stats.
struct Phase2Tables {
  Table r1_hat;
  Table r2_hat;
  Phase2Stats stats;
};

/// Phase II on a phase-I-completed join view through the public pipeline:
/// BuildSynthesisPlan (whose repair selection writes the invalid rows' B
/// cells into `v_join`) → PreparePlan → ExecutePlan into a TableSink.
inline StatusOr<Phase2Tables> ExecutePhase2(
    Table& v_join, const Table& r1, const Table& r2, const PairSchema& names,
    const std::vector<DenialConstraint>& dcs,
    const std::vector<CardinalityConstraint>& ccs,
    const std::vector<uint32_t>& invalid_rows, const Phase2Options& options) {
  SynthesisPlanOptions plan_options;
  plan_options.seed = options.seed;
  plan_options.num_shards = options.num_shards;
  plan_options.num_threads_hint = options.num_threads;
  CEXTEND_ASSIGN_OR_RETURN(
      SynthesisPlan plan, BuildSynthesisPlan(v_join, r2, names, ccs,
                                             invalid_rows, plan_options));
  CEXTEND_ASSIGN_OR_RETURN(PreparedPlan prepared,
                           PreparePlan(plan, v_join, r2, names, dcs));
  TableSink sink(r1, r2, names);
  CEXTEND_ASSIGN_OR_RETURN(Phase2Stats stats,
                           ExecutePlan(prepared, options, &sink));
  return Phase2Tables{std::move(sink.r1_hat()), std::move(sink.r2_hat()),
                      stats};
}

/// Enumerates all k-subsets of `group`, invoking `fn(subset)`; stops early
/// when `fn` returns false.
inline bool ForEachSubset(
    const std::vector<uint32_t>& group, size_t k,
    const std::function<bool(const std::vector<uint32_t>&)>& fn) {
  std::vector<size_t> idx(k);
  for (size_t i = 0; i < k; ++i) idx[i] = i;
  if (group.size() < k) return true;
  std::vector<uint32_t> subset(k);
  for (;;) {
    for (size_t i = 0; i < k; ++i) subset[i] = group[idx[i]];
    if (!fn(subset)) return false;
    // Advance combination.
    size_t i = k;
    while (i > 0) {
      --i;
      if (idx[i] != i + group.size() - k) {
        ++idx[i];
        for (size_t j = i + 1; j < k; ++j) idx[j] = idx[j - 1] + 1;
        break;
      }
      if (i == 0) return true;
    }
  }
}

/// Brute-force oracle for EvaluateDcError: every arity-sized subset of every
/// FK group goes through BodyHoldsUnordered. Θ(g^arity) per group, so only
/// for small tables.
inline StatusOr<DcErrorReport> BruteForceDcError(
    const std::vector<DenialConstraint>& dcs, const Table& r1,
    const std::string& fk_column) {
  DcErrorReport report;
  report.num_tuples = r1.NumRows();
  auto fk_idx = r1.schema().IndexOf(fk_column);
  if (!fk_idx.has_value()) {
    return Status::InvalidArgument("no FK column " + fk_column);
  }
  CEXTEND_ASSIGN_OR_RETURN(std::vector<BoundDenialConstraint> bound,
                           BindAll(dcs, r1));
  // Rows sorted by FK; NULL FK rows share an FK with nothing.
  std::vector<std::pair<int64_t, uint32_t>> keyed;
  for (size_t r = 0; r < r1.NumRows(); ++r) {
    int64_t fk = r1.GetCode(r, *fk_idx);
    if (fk != kNullCode) keyed.emplace_back(fk, static_cast<uint32_t>(r));
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<uint8_t> violating(r1.NumRows(), 0);
  for (size_t begin = 0; begin < keyed.size();) {
    size_t end = begin;
    std::vector<uint32_t> rows;
    while (end < keyed.size() && keyed[end].first == keyed[begin].first) {
      rows.push_back(keyed[end++].second);
    }
    for (const BoundDenialConstraint& dc : bound) {
      ForEachSubset(rows, static_cast<size_t>(dc.arity()),
                    [&](const std::vector<uint32_t>& subset) {
                      if (dc.BodyHoldsUnordered(r1, subset)) {
                        ++report.num_violations;
                        for (uint32_t row : subset) violating[row] = 1;
                      }
                      return true;
                    });
    }
    begin = end;
  }
  for (uint8_t v : violating) report.num_violating_tuples += v;
  report.error = report.num_tuples == 0
                     ? 0.0
                     : static_cast<double>(report.num_violating_tuples) /
                           static_cast<double>(report.num_tuples);
  return report;
}

/// Brute-force oracle for EvaluateCcError: one full CountMatches scan of the
/// join view per CC.
inline StatusOr<CcErrorReport> BruteForceCcError(
    const std::vector<CardinalityConstraint>& ccs, const Table& v_join) {
  CcErrorReport report;
  double sum = 0.0;
  for (const CardinalityConstraint& cc : ccs) {
    CEXTEND_ASSIGN_OR_RETURN(
        BoundPredicate pred, BoundPredicate::Bind(cc.JoinCondition(), v_join));
    int64_t actual = static_cast<int64_t>(pred.CountMatches(v_join));
    double denom = static_cast<double>(std::max<int64_t>(10, cc.target));
    double err = static_cast<double>(std::llabs(actual - cc.target)) / denom;
    report.per_cc.push_back(err);
    sum += err;
    report.max = std::max(report.max, err);
    if (actual == cc.target) ++report.num_exact;
  }
  report.mean = ccs.empty() ? 0.0 : sum / static_cast<double>(ccs.size());
  std::vector<double> sorted = report.per_cc;
  std::sort(sorted.begin(), sorted.end());
  size_t n = sorted.size();
  if (n > 0) {
    report.median = n % 2 == 1 ? sorted[n / 2]
                               : 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]);
  }
  return report;
}

}  // namespace testing_fixtures
}  // namespace cextend

#endif  // CEXTEND_TESTS_TEST_UTIL_H_
