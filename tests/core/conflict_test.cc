#include "core/conflict.h"

#include <gtest/gtest.h>

#include "graph/list_coloring.h"
#include "test_util.h"

namespace cextend {
namespace {

/// A small table shaped like the NAE-3SAT encoding: one int column `Cls`.
Table ClauseTable(const std::vector<int64_t>& cls) {
  Schema schema{{"Cls", DataType::kInt64}};
  Table t{schema};
  for (int64_t c : cls) CEXTEND_CHECK(t.AppendRow({Value(c)}).ok());
  return t;
}

DenialConstraint TernaryClauseDc() {
  DenialConstraint dc(3, "clause-nae");
  dc.Binary(0, "Cls", CompareOp::kEq, 1, "Cls");
  dc.Binary(1, "Cls", CompareOp::kEq, 2, "Cls");
  return dc;
}

TEST(ConflictOracleTernaryTest, HyperedgesPerClause) {
  // Two clauses of three rows each: one hyperedge per clause.
  Table t = ClauseTable({7, 7, 7, 9, 9, 9});
  auto bound = BindAll({TernaryClauseDc()}, t);
  ASSERT_TRUE(bound.ok());
  auto oracle = PartitionConflictOracle::Build(t, bound.value(),
                                               {0, 1, 2, 3, 4, 5});
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  // Each vertex sits in exactly one hyperedge.
  for (size_t v = 0; v < 6; ++v) EXPECT_EQ(oracle->Degree(v), 1);
  // No *pairwise* conflicts: a 3-ary edge only forbids monochrome triples.
  EXPECT_FALSE(oracle->PairConflicts(0, 1));

  // Forbidden colors: vertex 0 is only constrained when 1 AND 2 share.
  std::vector<int64_t> colors = {kNoColor, 5, kNoColor, kNoColor, kNoColor,
                                 kNoColor};
  std::vector<int64_t> out;
  oracle->AppendForbiddenColors(0, colors, &out);
  EXPECT_TRUE(out.empty());
  colors[2] = 5;
  oracle->AppendForbiddenColors(0, colors, &out);
  EXPECT_EQ(out, (std::vector<int64_t>{5}));

  // A monochrome pair in another clause constrains nothing.
  colors[3] = colors[4] = 6;
  out.clear();
  oracle->AppendForbiddenColors(0, colors, &out);
  EXPECT_EQ(out, (std::vector<int64_t>{5}));
}

TEST(ConflictOracleTernaryTest, ColoringRespectsHyperedges) {
  Table t = ClauseTable({7, 7, 7});
  auto bound = BindAll({TernaryClauseDc()}, t);
  ASSERT_TRUE(bound.ok());
  auto oracle = PartitionConflictOracle::Build(t, bound.value(), {0, 1, 2});
  ASSERT_TRUE(oracle.ok());
  ListColoringResult r = GreedyListColoring(*oracle, {}, {0, 1});
  EXPECT_TRUE(r.skipped.empty());
  // At least two distinct colors among the three rows.
  EXPECT_FALSE(r.colors[0] == r.colors[1] && r.colors[1] == r.colors[2]);
}

TEST(ConflictOracleTernaryTest, CandidateCapIsEnforced) {
  // 60 rows of one clause: 60*59*58 ordered assignments exceed a small cap.
  std::vector<int64_t> cls(60, 1);
  Table t = ClauseTable(cls);
  auto bound = BindAll({TernaryClauseDc()}, t);
  ASSERT_TRUE(bound.ok());
  std::vector<uint32_t> rows;
  for (uint32_t i = 0; i < 60; ++i) rows.push_back(i);
  ConflictOracleOptions options;
  options.max_hyperedge_candidates = 1000;
  auto oracle = PartitionConflictOracle::Build(t, bound.value(), rows, options);
  EXPECT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.status().code(), StatusCode::kResourceExhausted);
  // The factory propagates the hyperedge-cap error instead of falling back.
  auto via_factory = BuildPartitionOracle(t, bound.value(), rows, options);
  EXPECT_FALSE(via_factory.ok());
  EXPECT_EQ(via_factory.status().code(), StatusCode::kResourceExhausted);
}

TEST(ConflictOracleTest, MixedBinaryAndTernary) {
  // Cls groups + a binary "same Cls may not pair" DC on value 9 only.
  Table t = ClauseTable({7, 7, 7, 9, 9});
  DenialConstraint binary(2, "no-nines-together");
  binary.Unary(0, "Cls", CompareOp::kEq, Value(int64_t{9}));
  binary.Unary(1, "Cls", CompareOp::kEq, Value(int64_t{9}));
  auto bound = BindAll({TernaryClauseDc(), binary}, t);
  ASSERT_TRUE(bound.ok());
  auto oracle =
      PartitionConflictOracle::Build(t, bound.value(), {0, 1, 2, 3, 4});
  ASSERT_TRUE(oracle.ok());
  EXPECT_TRUE(oracle->PairConflicts(3, 4));   // binary
  EXPECT_FALSE(oracle->PairConflicts(0, 1));  // ternary only
  EXPECT_EQ(oracle->Degree(3), 1);
  EXPECT_EQ(oracle->Degree(0), 1);
  // Edge count = 1 binary pair + 1 ternary edge (the 9s are only two rows,
  // so no 3-subset of them exists).
  EXPECT_EQ(oracle->CountEdges(), 2u);
}

TEST(ConflictOracleTest, EmptyAndSingletonPartitions) {
  Table t = ClauseTable({1});
  auto bound = BindAll({TernaryClauseDc()}, t);
  ASSERT_TRUE(bound.ok());
  auto empty = PartitionConflictOracle::Build(t, bound.value(), {});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->NumVertices(), 0u);
  auto one = PartitionConflictOracle::Build(t, bound.value(), {0});
  ASSERT_TRUE(one.ok());
  EXPECT_EQ(one->Degree(0), 0);
  EXPECT_EQ(one->CountEdges(), 0u);
}

}  // namespace
}  // namespace cextend
