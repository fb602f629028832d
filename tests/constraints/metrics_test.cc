#include "constraints/metrics.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "core/join_view.h"
#include "datagen/nae3sat.h"
#include "test_util.h"
#include "util/rng.h"

namespace cextend {
namespace {

using testing_fixtures::BruteForceCcError;
using testing_fixtures::BruteForceDcError;
using testing_fixtures::MakePaperExample;
using testing_fixtures::PaperExample;

/// A valid solution to the running example (a corrected variant of the
/// paper's Figure 3 — the printed figure places the 24-year-old spouse with
/// the 75-year-old owner, which violates DC_O,S,low by one year; here the
/// spouse lives with the 25-year-old owner and the children with the
/// multi-lingual 25-year-old owner, satisfying every DC and CC).
Table SolvedPersons() {
  PaperExample ex = MakePaperExample();
  Table persons = ex.persons.Clone();
  const int64_t hids[] = {2, 1, 3, 4, 3, 4, 4, 5, 6};
  size_t hid_col = persons.schema().IndexOrDie("hid");
  for (size_t r = 0; r < persons.NumRows(); ++r) {
    persons.SetCode(r, hid_col, hids[r]);
  }
  return persons;
}

TEST(MetricsTest, Figure3SatisfiesAllDcs) {
  PaperExample ex = MakePaperExample();
  auto report = EvaluateDcError(ex.dcs, SolvedPersons(), "hid");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_EQ(report->error, 0.0);
  EXPECT_EQ(report->num_violations, 0u);
}

TEST(MetricsTest, PaperDcErrorExample) {
  // Paper Section 6.1: "if hid in the first two tuples was 2, the DC error
  // would be 2/9" (two owners sharing a home).
  PaperExample ex = MakePaperExample();
  Table persons = SolvedPersons();
  size_t hid_col = persons.schema().IndexOrDie("hid");
  persons.SetCode(0, hid_col, 2);
  persons.SetCode(1, hid_col, 2);
  auto report = EvaluateDcError(ex.dcs, persons, "hid");
  ASSERT_TRUE(report.ok()) << report.status();
  EXPECT_DOUBLE_EQ(report->error, 2.0 / 9.0);
  EXPECT_EQ(report->num_violating_tuples, 2u);
}

TEST(MetricsTest, NullFkNeverViolates) {
  PaperExample ex = MakePaperExample();
  auto report = EvaluateDcError(ex.dcs, ex.persons, "hid");  // hid all NULL
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->error, 0.0);
}

TEST(MetricsTest, CcErrorOnSolvedExample) {
  PaperExample ex = MakePaperExample();
  auto v_join = MaterializeJoin(SolvedPersons(), ex.housing, ex.names);
  ASSERT_TRUE(v_join.ok()) << v_join.status();
  auto report = EvaluateCcError(ex.ccs, v_join.value());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->median, 0.0);
  EXPECT_EQ(report->mean, 0.0);
  EXPECT_EQ(report->num_exact, ex.ccs.size());
}

TEST(MetricsTest, CcErrorUsesMax10Denominator) {
  PaperExample ex = MakePaperExample();
  auto v_join = MaterializeJoin(SolvedPersons(), ex.housing, ex.names);
  ASSERT_TRUE(v_join.ok());
  // Perturb CC1's target (actual count 4): error = |4-6| / max(10,6) = 0.2.
  std::vector<CardinalityConstraint> ccs = ex.ccs;
  ccs[0].target = 6;
  auto report = EvaluateCcError(ccs, v_join.value());
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->per_cc[0], 0.2);
  // And with a large target the denominator is the target itself:
  ccs[0].target = 104;  // |4-104| / 104
  report = EvaluateCcError(ccs, v_join.value());
  ASSERT_TRUE(report.ok());
  EXPECT_DOUBLE_EQ(report->per_cc[0], 100.0 / 104.0);
}

TEST(MetricsTest, JoinMismatchesDetectsCorruption) {
  PaperExample ex = MakePaperExample();
  Table persons = SolvedPersons();
  auto v_join = MaterializeJoin(persons, ex.housing, ex.names);
  ASSERT_TRUE(v_join.ok());
  auto zero = CountJoinMismatches(persons, "hid", ex.housing, "hid",
                                  v_join.value(), {"Area"});
  ASSERT_TRUE(zero.ok()) << zero.status();
  EXPECT_EQ(zero.value(), 0u);

  // Repoint one FK across areas: exactly one mismatch.
  size_t hid_col = persons.schema().IndexOrDie("hid");
  persons.SetCode(0, hid_col, 5);  // Chicago row now points to an NYC home
  auto one = CountJoinMismatches(persons, "hid", ex.housing, "hid",
                                 v_join.value(), {"Area"});
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one.value(), 1u);

  // Dangling FK also counts.
  persons.SetCode(0, hid_col, 999);
  auto dangling = CountJoinMismatches(persons, "hid", ex.housing, "hid",
                                      v_join.value(), {"Area"});
  ASSERT_TRUE(dangling.ok());
  EXPECT_EQ(dangling.value(), 1u);
}

TEST(MetricsTest, TernaryDcCounted) {
  Schema schema{{"id", DataType::kInt64},
                {"Cls", DataType::kInt64},
                {"fk", DataType::kInt64}};
  Table t{schema};
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(t.AppendRow({Value(i), Value(7), Value(1)}).ok());
  }
  DenialConstraint dc(3, "clause");
  dc.Binary(0, "Cls", CompareOp::kEq, 1, "Cls");
  dc.Binary(1, "Cls", CompareOp::kEq, 2, "Cls");
  auto report = EvaluateDcError({dc}, t, "fk");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_violations, 1u);
  EXPECT_DOUBLE_EQ(report->error, 1.0);
}

TEST(MetricsTest, DcArityBelowOneIsRejected) {
  DenialConstraint empty(0, "empty");
  auto report = EvaluateDcError({empty}, SolvedPersons(), "hid");
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

void ExpectSameDcReport(const DcErrorReport& got, const DcErrorReport& want,
                        const std::string& context) {
  EXPECT_EQ(got.num_tuples, want.num_tuples) << context;
  EXPECT_EQ(got.num_violating_tuples, want.num_violating_tuples) << context;
  EXPECT_EQ(got.num_violations, want.num_violations) << context;
  EXPECT_EQ(got.error, want.error) << context;
}

void ExpectSameCcReport(const CcErrorReport& got, const CcErrorReport& want,
                        const std::string& context) {
  EXPECT_EQ(got.per_cc, want.per_cc) << context;
  EXPECT_EQ(got.median, want.median) << context;
  EXPECT_EQ(got.mean, want.mean) << context;
  EXPECT_EQ(got.max, want.max) << context;
  EXPECT_EQ(got.num_exact, want.num_exact) << context;
}

TEST(MetricsTest, CcCheckOnInt64ExtremeCodes) {
  // Few distinct values near INT64_MAX and INT64_MIN (one above kNullCode)
  // over more rows than their span: posting lists must not count from the
  // smallest code to the largest.
  const int64_t max = std::numeric_limits<int64_t>::max();
  const int64_t min = std::numeric_limits<int64_t>::min() + 1;
  Table t{Schema{{"A", DataType::kInt64}}};
  for (int64_t v : {max, max - 1, max, min, min + 1, max - 1, min, max}) {
    ASSERT_TRUE(t.AppendRow({Value(v)}).ok());
  }
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  std::vector<CardinalityConstraint> ccs;
  for (int64_t v : {max, max - 1, max - 2, min, min + 1}) {
    CardinalityConstraint cc;
    cc.name = "a" + std::to_string(ccs.size());
    cc.target = 2;
    cc.r1_condition.Eq("A", Value(v));
    ccs.push_back(cc);
  }
  auto got = EvaluateCcError(ccs, t);
  auto want = BruteForceCcError(ccs, t);
  ASSERT_TRUE(got.ok() && want.ok()) << got.status() << want.status();
  ExpectSameCcReport(*got, *want, "extreme codes");
  EXPECT_EQ(got->num_exact, 2u);  // max - 1 and min each hold two rows
}

// ---- Seeded differential test against the brute-force oracles. ----
//
// Random tables over int columns A, B, C, W and string columns S, T, with
// NULL cells and NULL FKs, FK groups of 0-40 rows, and random DCs / CCs
// mixing every atom shape the evaluators special-case.

const char* const kStrings[] = {"x", "y", "z"};
// Values of the wide-range column W, far apart and negative ones included.
const int64_t kWide[] = {-5000000000, -3, 12, int64_t{1} << 40};

Value RandomIntConstant(Rng& rng) { return Value(rng.UniformInt(-1, 6)); }

// Mostly dictionary strings; "absent" is in no dictionary.
Value RandomStringConstant(Rng& rng) {
  if (rng.Bernoulli(0.2)) return Value("absent");
  return Value(kStrings[rng.UniformInt(0, 2)]);
}

Table RandomTable(Rng& rng) {
  Schema schema{{"A", DataType::kInt64}, {"B", DataType::kInt64},
                {"C", DataType::kInt64}, {"S", DataType::kString},
                {"T", DataType::kString}, {"W", DataType::kInt64},
                {"fk", DataType::kInt64}};
  Table t{schema};
  auto cell = [&](Value v) { return rng.Bernoulli(0.08) ? Value::Null() : v; };
  int64_t num_groups = rng.UniformInt(1, 4);
  for (int64_t g = 0; g <= num_groups; ++g) {
    // Group `num_groups` holds the NULL-FK rows.
    bool null_fk = g == num_groups;
    int64_t size = rng.UniformInt(0, null_fk ? 6 : 40);
    for (int64_t i = 0; i < size; ++i) {
      CEXTEND_CHECK(
          t.AppendRow({cell(Value(rng.UniformInt(0, 5))),
                       cell(Value(rng.UniformInt(0, 5))),
                       cell(Value(rng.UniformInt(0, 2))),
                       cell(Value(kStrings[rng.UniformInt(0, 2)])),
                       cell(Value(kStrings[rng.UniformInt(0, 1)])),
                       cell(Value(kWide[rng.UniformInt(0, 3)])),
                       null_fk ? Value::Null() : Value(g * 7)})
              .ok());
    }
  }
  // Shuffle the rows so groups interleave in row order.
  std::vector<uint32_t> perm(t.NumRows());
  for (uint32_t r = 0; r < perm.size(); ++r) perm[r] = r;
  rng.Shuffle(perm);
  Table shuffled = t.CloneEmpty();
  std::vector<int64_t> codes(t.NumColumns());
  for (uint32_t r : perm) {
    for (size_t c = 0; c < t.NumColumns(); ++c) codes[c] = t.GetCode(r, c);
    shuffled.AppendRowCodes(codes);
  }
  return shuffled;
}

// Every draw is its own statement: argument evaluation order is
// unspecified, and the instances must not depend on the compiler.
DenialConstraint RandomDc(Rng& rng, int index) {
  int arity = rng.Bernoulli(0.3) ? 3 : 2;
  DenialConstraint dc(arity, "dc" + std::to_string(index));
  const char* const int_cols[] = {"A", "B", "C"};
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kGe};
  auto var = [&] { return static_cast<int>(rng.UniformInt(0, arity - 1)); };
  auto other_var = [&](int v) {
    return (v + static_cast<int>(rng.UniformInt(1, arity - 1))) % arity;
  };
  auto int_col = [&] { return int_cols[rng.UniformInt(0, 2)]; };
  auto op = [&] { return ops[rng.UniformInt(0, 3)]; };
  int64_t num_atoms = rng.UniformInt(1, 4);
  for (int64_t i = 0; i < num_atoms; ++i) {
    int64_t kind = rng.UniformInt(0, 5);
    int lhs = var();
    if (kind == 0) {  // string unary: = or != (maybe absent), or IN
      if (rng.Bernoulli(0.3)) {
        std::vector<Value> values;
        for (int64_t k = rng.UniformInt(1, 3); k > 0; --k) {
          values.push_back(RandomStringConstant(rng));
        }
        dc.UnaryIn(lhs, "S", values);
      } else {
        CompareOp o = rng.Bernoulli(0.5) ? CompareOp::kEq : CompareOp::kNe;
        dc.Unary(lhs, "S", o, RandomStringConstant(rng));
      }
    } else if (kind == 1) {  // int unary, IN included
      const char* col = int_col();
      if (rng.Bernoulli(0.2)) {
        std::vector<Value> values = {RandomIntConstant(rng),
                                     RandomIntConstant(rng)};
        dc.UnaryIn(lhs, col, values);
      } else {
        CompareOp o = op();
        dc.Unary(lhs, col, o, RandomIntConstant(rng));
      }
    } else if (kind == 2) {  // single-variable: t_i.X op t_i.Y + off
      const char* lhs_col = int_col();
      CompareOp o = op();
      const char* rhs_col = int_col();
      dc.Binary(lhs, lhs_col, o, lhs, rhs_col, rng.UniformInt(-2, 2));
    } else if (kind == 3) {  // string cross atom, rarely across dictionaries
      int rhs = other_var(lhs);
      // 1 in 20 compares S with T, which Bind rejects.
      int64_t cols = rng.UniformInt(0, 19);
      const char* lhs_col = cols < 5 ? "T" : "S";
      const char* rhs_col = cols == 0 ? "S" : lhs_col;
      CompareOp o = rng.Bernoulli(0.6) ? CompareOp::kEq : CompareOp::kNe;
      dc.Binary(lhs, lhs_col, o, rhs, rhs_col);
    } else {  // int cross atom with offset; `=` twice as likely
      int rhs = other_var(lhs);
      CompareOp o = kind == 4 ? CompareOp::kEq : op();
      const char* lhs_col = int_col();
      const char* rhs_col = int_col();
      dc.Binary(lhs, lhs_col, o, rhs, rhs_col, rng.UniformInt(-2, 2));
    }
  }
  return dc;
}

CardinalityConstraint RandomCc(Rng& rng, int index) {
  CardinalityConstraint cc;
  cc.name = "cc" + std::to_string(index);
  cc.target = rng.UniformInt(0, 30);
  int64_t num_atoms = rng.UniformInt(0, 3);
  for (int64_t i = 0; i < num_atoms; ++i) {
    Predicate& side = rng.Bernoulli(0.5) ? cc.r1_condition : cc.r2_condition;
    int64_t kind = rng.UniformInt(0, 6);
    const char* col = rng.Bernoulli(0.5) ? "S" : "T";
    if (kind == 0) {
      side.Eq(col, RandomStringConstant(rng));
    } else if (kind == 1) {
      side.Ne(col, RandomStringConstant(rng));
    } else if (kind == 2) {
      // String and int constants mixed: the ones of the wrong type drop out.
      std::vector<Value> values = {RandomStringConstant(rng),
                                   RandomIntConstant(rng),
                                   RandomStringConstant(rng)};
      side.In(rng.Bernoulli(0.5) ? "S" : "A", values);
    } else if (kind == 3) {
      const char* int_col = rng.Bernoulli(0.5) ? "A" : "C";
      side.Eq(int_col, RandomIntConstant(rng));
    } else if (kind == 4) {
      side.Lt("B", RandomIntConstant(rng));
    } else if (kind == 5) {
      int64_t wide = kWide[rng.UniformInt(0, 3)];
      side.Eq("W", Value(wide + rng.UniformInt(0, 1)));  // maybe absent
    } else {
      side.Ge("A", RandomIntConstant(rng));
    }
  }
  return cc;
}

TEST(MetricsDifferentialTest, MatchesBruteForceOnRandomTables) {
  Rng rng(20210614);
  size_t total_violations = 0;
  size_t clean_tables = 0;
  for (int trial = 0; trial < 200; ++trial) {
    Table t = RandomTable(rng);
    std::vector<DenialConstraint> dcs;
    for (int64_t i = rng.UniformInt(1, 4); i > 0; --i) {
      dcs.push_back(RandomDc(rng, static_cast<int>(dcs.size())));
    }
    std::vector<CardinalityConstraint> ccs;
    for (int64_t i = rng.UniformInt(0, 8); i > 0; --i) {
      ccs.push_back(RandomCc(rng, static_cast<int>(ccs.size())));
    }
    std::string context = "trial " + std::to_string(trial);
    for (const DenialConstraint& dc : dcs) context += "\n  " + dc.ToString();
    for (const CardinalityConstraint& cc : ccs) {
      context += "\n  " + cc.ToString();
    }

    auto want_dc = BruteForceDcError(dcs, t, "fk");
    auto got_dc = EvaluateDcError(dcs, t, "fk");
    ASSERT_EQ(got_dc.status().code(), want_dc.status().code()) << context;
    if (want_dc.ok()) {
      ExpectSameDcReport(*got_dc, *want_dc, context);
      total_violations += want_dc->num_violations;
      if (want_dc->num_violations == 0) ++clean_tables;
    }
    auto want_cc = BruteForceCcError(ccs, t);
    auto got_cc = EvaluateCcError(ccs, t);
    ASSERT_EQ(got_cc.status().code(), want_cc.status().code()) << context;
    if (want_cc.ok()) ExpectSameCcReport(*got_cc, *want_cc, context);
  }
  // The generator must produce both violating and clean instances.
  EXPECT_GT(total_violations, 1000u);
  EXPECT_GT(clean_tables, 10u);
}

// ---- Exhaustive tiny instances. ----
//
// Every assignment of FK values {NULL, 1..keys} to the first `n` rows, for
// n <= 7 and keys <= 3, compared with the oracle. Pins the first-holding-
// permutation dedup (paper DCs, where either row order can hold) and cross
// `=` atoms between variables (the arity-3 NAE-3SAT clause DC).
void ExpectMatchesOracleOnEveryAssignment(
    const Table& table, const std::vector<DenialConstraint>& dcs,
    const std::string& fk_column, size_t* total_violations) {
  size_t fk_col = table.schema().IndexOrDie(fk_column);
  for (size_t n = 0; n <= std::min<size_t>(7, table.NumRows()); ++n) {
    Table prefix = table.CloneEmpty();
    std::vector<int64_t> codes(table.NumColumns());
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < table.NumColumns(); ++c) {
        codes[c] = table.GetCode(r, c);
      }
      prefix.AppendRowCodes(codes);
    }
    for (int64_t keys = 1; keys <= 3; ++keys) {
      // Digit r of `assignment` in base keys+1 is row r's FK (0 = NULL).
      int64_t num_assignments = 1;
      for (size_t r = 0; r < n; ++r) num_assignments *= keys + 1;
      for (int64_t assignment = 0; assignment < num_assignments;
           ++assignment) {
        int64_t rest = assignment;
        for (size_t r = 0; r < n; ++r) {
          int64_t digit = rest % (keys + 1);
          rest /= keys + 1;
          prefix.SetCode(r, fk_col, digit == 0 ? kNullCode : digit);
        }
        auto want = BruteForceDcError(dcs, prefix, fk_column);
        auto got = EvaluateDcError(dcs, prefix, fk_column);
        ASSERT_TRUE(want.ok() && got.ok());
        std::string context = "n=" + std::to_string(n) +
                              " keys=" + std::to_string(keys) +
                              " assignment=" + std::to_string(assignment);
        ExpectSameDcReport(*got, *want, context);
        if (::testing::Test::HasFailure()) return;
        *total_violations += want->num_violations;
      }
    }
  }
}

TEST(MetricsExhaustiveTest, PaperExampleDcsOnEveryTinyAssignment) {
  PaperExample ex = MakePaperExample();
  size_t total_violations = 0;
  ExpectMatchesOracleOnEveryAssignment(ex.persons, ex.dcs, "hid",
                                       &total_violations);
  EXPECT_GT(total_violations, 0u);
}

TEST(MetricsExhaustiveTest, Nae3SatClauseDcOnEveryTinyAssignment) {
  datagen::Nae3SatInstance instance;
  instance.num_vars = 4;
  instance.clauses = {{1, -2, 3}, {-1, 2, 4}, {2, -3, -4}};
  auto enc = datagen::EncodeNae3Sat(instance);
  ASSERT_TRUE(enc.ok()) << enc.status();
  size_t total_violations = 0;
  ExpectMatchesOracleOnEveryAssignment(enc->r1, enc->dcs, "Chosen",
                                       &total_violations);
  EXPECT_GT(total_violations, 0u);
}

}  // namespace
}  // namespace cextend
