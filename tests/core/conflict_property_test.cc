// Randomized cross-check of the indexed PartitionConflictOracle against the
// brute-force NaiveConflictOracle: adjacency, degrees, edge counts, forbidden
// colors and full greedy colorings must match exactly across
// seeds, DC shapes (equality / ordering / != / no cross atoms / same-tuple
// atoms / arity 3, and the threshold-layer shapes in their own seeds) and
// NULL-bearing columns.

#include <algorithm>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/conflict.h"
#include "graph/list_coloring.h"
#include "test_util.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace cextend {
namespace {

/// Which DC shapes a seed draws. kGeneral is the broad mix: several of its
/// DCs have a side open to every row, so they share pairs with every
/// ordering DC and keep it off the threshold layer. kThreshold drops those
/// and adds the threshold-layer shapes instead (age-gap .low/.high pairs,
/// overlapping half-lines, an ordering DC under a biclique, shared sides).
enum class DcMix { kGeneral, kThreshold };

Table RandomTable(Rng& rng, size_t n, DcMix mix = DcMix::kGeneral) {
  Schema schema{{"G", DataType::kInt64},
                {"Age", DataType::kInt64},
                {"Rel", DataType::kString},
                {"ML", DataType::kInt64}};
  Table t{schema};
  // The threshold mix draws two more Rel values for its age-gap pairs.
  const char* rels[] = {"Owner", "Spouse", "Child",
                        "Other", "Parent", "Grandchild"};
  const int64_t last_rel = mix == DcMix::kGeneral ? 3 : 5;
  for (size_t i = 0; i < n; ++i) {
    Value age = rng.Bernoulli(0.05)
                    ? Value::Null()
                    : Value(rng.UniformInt(0, 90));
    Value g = rng.Bernoulli(0.05) ? Value::Null()
                                  : Value(rng.UniformInt(0, 4));
    CEXTEND_CHECK(
        t.AppendRow({g, age,
                     Value(rels[rng.UniformInt(0, last_rel)]),
                     Value(rng.UniformInt(0, 1))})
            .ok());
  }
  return t;
}

/// The census age-gap rule as a .low/.high pair: no `member` aged outside
/// [owner age + lo, owner age + hi]. Each DC has one ordering atom across
/// the pair, and the two half-lines on the age difference are disjoint.
void AddAgeGapPair(std::vector<DenialConstraint>* dcs, const char* member,
                   int64_t lo, int64_t hi) {
  for (int side = 0; side < 2; ++side) {
    DenialConstraint dc(2,
                        std::string(member) + (side == 0 ? ".low" : ".high"));
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value(member));
    if (side == 0) {
      dc.Binary(1, "Age", CompareOp::kLt, 0, "Age", lo);
    } else {
      dc.Binary(1, "Age", CompareOp::kGt, 0, "Age", hi);
    }
    dcs->push_back(std::move(dc));
  }
}

/// The threshold-layer shapes of DcMix::kThreshold.
void AddThresholdShapes(Rng& rng, std::vector<DenialConstraint>* out) {
  std::vector<DenialConstraint>& dcs = *out;
  // Threshold layer: a .low/.high age-gap pair on the same columns
  // (disjoint half-lines, so both are admitted next to the bicliques).
  AddAgeGapPair(&dcs, "Parent", -rng.UniformInt(10, 40),
                rng.UniformInt(0, 20));
  // Overlapping half-lines on the same columns (d < -10 and d > -40 meet):
  // both must fall back to materialized pairs.
  {
    DenialConstraint low(2, "grandchild.low");
    low.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    low.Unary(1, "Rel", CompareOp::kEq, Value("Grandchild"));
    low.Binary(1, "Age", CompareOp::kLt, 0, "Age", -10);
    dcs.push_back(std::move(low));
    DenialConstraint high(2, "grandchild.high");
    high.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    high.Unary(1, "Rel", CompareOp::kEq, Value("Grandchild"));
    high.Binary(0, "Age", CompareOp::kLe, 1, "Age", 40);
    dcs.push_back(std::move(high));
  }
  // An age-gap DC overlapping a biclique (like DC6.high under DC10): young
  // owners x children is a product DC sharing pairs with child.high, which
  // must then fall back; without the product it is admitted.
  {
    DenialConstraint dc(2, "child.high");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Child"));
    dc.Binary(1, "Age", CompareOp::kGe, 0, "Age", -15);
    dcs.push_back(std::move(dc));
  }
  if (rng.Bernoulli(0.6)) {
    DenialConstraint dc(2, "young-owner-child");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(0, "Age", CompareOp::kLt, Value(int64_t{40}));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Child"));
    dcs.push_back(std::move(dc));
  }
  // An ordering DC whose two sides share vertices (spouse vs spouse) is
  // never admitted: a pair could then conflict in both orientations.
  {
    DenialConstraint dc(2, "spouse-gap");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Spouse"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Spouse"));
    dc.Binary(1, "Age", CompareOp::kGt, 0, "Age", 25);
    dcs.push_back(std::move(dc));
  }
}

std::vector<DenialConstraint> RandomDcs(Rng& rng,
                                       DcMix mix = DcMix::kGeneral) {
  std::vector<DenialConstraint> dcs;
  // `broad` DCs have a side open to every row; the threshold mix leaves
  // them out (see DcMix).
  const bool broad = mix == DcMix::kGeneral;
  if (!broad) AddThresholdShapes(rng, &dcs);
  // No cross atoms: side0 x side1 product (owner-owner style).
  {
    DenialConstraint dc(2, "owner-owner");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Owner"));
    dcs.push_back(std::move(dc));
  }
  // Ordering cross atom with offset (age gap).
  {
    DenialConstraint dc(2, "age-gap");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Spouse"));
    dc.Binary(1, "Age", CompareOp::kLt, 0, "Age",
              -rng.UniformInt(10, 40));
    dcs.push_back(std::move(dc));
  }
  // Equality cross atom (bucketed), written with var 1 on the left so the
  // orientation flip is exercised.
  if (broad) {
    DenialConstraint dc(2, "same-group");
    dc.Binary(1, "G", CompareOp::kEq, 0, "G",
              rng.Bernoulli(0.5) ? 0 : 1);
    dc.Unary(0, "ML", CompareOp::kEq, Value(int64_t{1}));
    dcs.push_back(std::move(dc));
  }
  // != cross atom (residual filter path).
  if (rng.Bernoulli(0.7)) {
    DenialConstraint dc(2, "diff-group");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Child"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Child"));
    dc.Binary(0, "G", CompareOp::kNe, 1, "G");
    dcs.push_back(std::move(dc));
  }
  // Equality + two ordering atoms: bucket, sorted run, and residual check.
  if (broad && rng.Bernoulli(0.7)) {
    DenialConstraint dc(2, "band");
    dc.Binary(0, "G", CompareOp::kEq, 1, "G");
    dc.Binary(0, "Age", CompareOp::kGe, 1, "Age", -20);
    dc.Binary(0, "Age", CompareOp::kLe, 1, "Age", 20);
    dcs.push_back(std::move(dc));
  }
  // Same-tuple binary atom acting as a side filter.
  if (broad && rng.Bernoulli(0.5)) {
    DenialConstraint dc(2, "self-filter");
    dc.Binary(0, "Age", CompareOp::kGt, 0, "G", 30);
    dc.Binary(0, "G", CompareOp::kEq, 1, "G");
    dcs.push_back(std::move(dc));
  }
  // A binary kIn atom is degenerate (kIn is unary-only, so it never holds);
  // both oracles must agree it produces no conflicts instead of the indexed
  // one mis-planning it as an ordering atom.
  if (broad && rng.Bernoulli(0.3)) {
    DenialConstraint dc(2, "degenerate-in");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Other"));
    dc.Binary(0, "G", CompareOp::kIn, 1, "G");
    dcs.push_back(std::move(dc));
  }
  // A second no-cross-atom DC whose sides overlap the owner-owner clique:
  // two implicit bicliques whose union must stay simple-graph (and overlap
  // materialized pairs from the DCs above).
  if (rng.Bernoulli(0.7)) {
    DenialConstraint dc(2, "owner-spouse-product");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.UnaryIn(1, "Rel", {Value("Owner"), Value("Spouse")});
    dcs.push_back(std::move(dc));
  }
  // No-cross-atom DC with a same-tuple binary atom as a side filter: the
  // implicit side masks must honor BuildSideMask's same-tuple rule, not just
  // the unary atoms.
  if (rng.Bernoulli(0.5)) {
    DenialConstraint dc(2, "filtered-product");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Child"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Child"));
    dc.Binary(0, "Age", CompareOp::kGt, 0, "G", 30);
    dcs.push_back(std::move(dc));
  }
  // Arity 3: exercises the shared hypergraph path.
  if (rng.Bernoulli(0.5)) {
    DenialConstraint dc(3, "triple");
    dc.Unary(0, "ML", CompareOp::kEq, Value(int64_t{1}));
    dc.Unary(1, "ML", CompareOp::kEq, Value(int64_t{1}));
    dc.Unary(2, "ML", CompareOp::kEq, Value(int64_t{1}));
    dc.Binary(0, "G", CompareOp::kEq, 1, "G");
    dc.Binary(1, "G", CompareOp::kEq, 2, "G");
    dcs.push_back(std::move(dc));
  }
  // Arity 4 with tight sides: the hypergraph must cover arities beyond 3
  // (the repair path relies on this) while staying under the candidate cap.
  if (rng.Bernoulli(0.3)) {
    DenialConstraint dc(4, "quad");
    for (int var = 0; var < 4; ++var) {
      dc.Unary(var, "Rel", CompareOp::kEq, Value("Spouse"));
      dc.Unary(var, "ML", CompareOp::kEq, Value(int64_t{1}));
    }
    dcs.push_back(std::move(dc));
  }
  return dcs;
}

std::multiset<int64_t> ForbiddenSet(const PartitionOracle& oracle, size_t v,
                                    const std::vector<int64_t>& colors) {
  std::vector<int64_t> out;
  oracle.AppendForbiddenColors(v, colors, &out);
  // Duplicates are legal per the interface; compare as sets of colors.
  return std::multiset<int64_t>(out.begin(), out.end());
}

struct PropertyCase {
  DcMix mix;
  uint64_t seed;
};

void PrintTo(const PropertyCase& c, std::ostream* os) {
  *os << (c.mix == DcMix::kGeneral ? "general" : "threshold") << " seed "
      << c.seed;
}

std::vector<PropertyCase> Seeds(DcMix mix) {
  std::vector<PropertyCase> cases;
  for (uint64_t seed = 1; seed < 13; ++seed) cases.push_back({mix, seed});
  return cases;
}

class ConflictPropertyTest : public ::testing::TestWithParam<PropertyCase> {
 protected:
  DcMix mix() const { return GetParam().mix; }
  uint64_t seed() const { return GetParam().seed; }
};

TEST_P(ConflictPropertyTest, IndexedMatchesNaive) {
  Rng rng(seed());
  size_t n = 30 + static_cast<size_t>(rng.UniformInt(0, 50));
  Table t = RandomTable(rng, n, mix());
  auto bound = BindAll(RandomDcs(rng, mix()), t);
  ASSERT_TRUE(bound.ok()) << bound.status();

  std::vector<uint32_t> rows;
  for (uint32_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.9)) rows.push_back(i);  // non-contiguous partitions
  }
  size_t m = rows.size();

  auto indexed = PartitionConflictOracle::Build(t, bound.value(), rows);
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  auto naive = NaiveConflictOracle::Build(t, bound.value(), rows);
  ASSERT_TRUE(naive.ok()) << naive.status();
  // The Parent .low/.high pair overlaps no other DC of the threshold mix.
  if (mix() == DcMix::kThreshold) {
    EXPECT_GE(indexed->num_threshold_dcs(), 2u);
  }

  ASSERT_EQ(indexed->NumVertices(), naive->NumVertices());
  EXPECT_EQ(indexed->CountEdges(), naive->CountEdges());
  for (size_t v = 0; v < m; ++v) {
    EXPECT_EQ(indexed->Degree(v), naive->Degree(v)) << "vertex " << v;
  }
  for (size_t u = 0; u < m; ++u) {
    for (size_t v = u + 1; v < m; ++v) {
      EXPECT_EQ(indexed->PairConflicts(u, v), naive->PairConflicts(u, v))
          << "pair " << u << "," << v;
    }
  }

  // Random partial colorings: forbidden sets must agree.
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<int64_t> colors(m, kNoColor);
    for (size_t v = 0; v < m; ++v) {
      if (rng.Bernoulli(0.6)) colors[v] = rng.UniformInt(0, 5);
    }
    for (size_t v = 0; v < m; ++v) {
      // The naive oracle never reports a self-edge and neither may the
      // indexed one; compare the deduplicated color sets.
      auto lhs = ForbiddenSet(*indexed, v, colors);
      auto rhs = ForbiddenSet(*naive, v, colors);
      EXPECT_EQ(std::set<int64_t>(lhs.begin(), lhs.end()),
                std::set<int64_t>(rhs.begin(), rhs.end()))
          << "vertex " << v;
    }
  }

  // Greedy colorings must be byte-identical (same candidate list and seed).
  std::vector<int64_t> candidates;
  int64_t num_candidates = rng.UniformInt(1, 8);
  for (int64_t c = 0; c < num_candidates; ++c) candidates.push_back(c * 7);
  ListColoringResult a = GreedyListColoring(*indexed, {}, candidates);
  ListColoringResult b = GreedyListColoring(*naive, {}, candidates);
  EXPECT_EQ(a.colors, b.colors);
  EXPECT_EQ(a.skipped, b.skipped);
}

TEST_P(ConflictPropertyTest, FactoryFallbackPreservesSemantics) {
  Rng rng(seed() * 977 + 5);
  size_t n = 40;
  Table t = RandomTable(rng, n, mix());
  auto bound = BindAll(RandomDcs(rng, mix()), t);
  ASSERT_TRUE(bound.ok());
  std::vector<uint32_t> rows(n);
  for (uint32_t i = 0; i < n; ++i) rows[i] = i;

  // A pair budget of 1 forces the naive fallback.
  ConflictOracleOptions tiny;
  tiny.max_materialized_pairs = 1;
  auto fallback = BuildPartitionOracle(t, bound.value(), rows, tiny);
  ASSERT_TRUE(fallback.ok()) << fallback.status();
  auto indexed = BuildPartitionOracle(t, bound.value(), rows);
  ASSERT_TRUE(indexed.ok());
  for (size_t u = 0; u < n; ++u) {
    EXPECT_EQ((*fallback)->Degree(u), (*indexed)->Degree(u));
    for (size_t v = u + 1; v < n; ++v) {
      EXPECT_EQ((*fallback)->PairConflicts(u, v),
                (*indexed)->PairConflicts(u, v));
    }
  }
  EXPECT_EQ((*fallback)->CountEdges(), (*indexed)->CountEdges());
}

TEST_P(ConflictPropertyTest, ParallelBuildIsByteIdenticalToSerial) {
  // Within-partition parallel construction (per-DC pair runs fanned out on a
  // thread pool, merged as sorted runs) must reproduce the serial CSR
  // adjacency exactly — same neighbor arrays, not just the same semantics.
  Rng rng(seed() * 31 + 7);
  size_t n = 40 + static_cast<size_t>(rng.UniformInt(0, 60));
  Table t = RandomTable(rng, n, mix());
  auto bound = BindAll(RandomDcs(rng, mix()), t);
  ASSERT_TRUE(bound.ok());
  std::vector<uint32_t> rows;
  for (uint32_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.9)) rows.push_back(i);
  }

  auto serial = PartitionConflictOracle::Build(t, bound.value(), rows);
  ASSERT_TRUE(serial.ok()) << serial.status();
  for (size_t threads : {size_t{2}, size_t{8}}) {
    ThreadPool pool(threads);
    ConflictOracleOptions options;
    options.pool = &pool;
    auto parallel =
        PartitionConflictOracle::Build(t, bound.value(), rows, options);
    ASSERT_TRUE(parallel.ok()) << parallel.status();
    ASSERT_EQ(parallel->NumVertices(), serial->NumVertices());
    EXPECT_EQ(parallel->CountEdges(), serial->CountEdges());
    EXPECT_EQ(parallel->num_materialized_pairs(),
              serial->num_materialized_pairs());
    for (size_t v = 0; v < rows.size(); ++v) {
      EXPECT_EQ(parallel->Degree(v), serial->Degree(v)) << "vertex " << v;
      std::vector<uint32_t> ns(serial->adjacency().NeighborsBegin(v),
                               serial->adjacency().NeighborsEnd(v));
      std::vector<uint32_t> np(parallel->adjacency().NeighborsBegin(v),
                               parallel->adjacency().NeighborsEnd(v));
      ASSERT_EQ(np, ns) << "neighbor run of vertex " << v << " at "
                        << threads << " threads";
    }
  }
}

/// Forwards every query to `inner` but publishes no layer decomposition, so
/// GreedyListColoring takes every forbidden color from the oracle's
/// AppendForbiddenColors (the opaque route).
class OpaqueOracle : public ConflictOracle {
 public:
  explicit OpaqueOracle(const ConflictOracle& inner) : inner_(inner) {}
  size_t NumVertices() const override { return inner_.NumVertices(); }
  int64_t Degree(size_t v) const override { return inner_.Degree(v); }
  void AppendForbiddenColors(size_t v, const std::vector<int64_t>& colors,
                             std::vector<int64_t>* out) const override {
    inner_.AppendForbiddenColors(v, colors, out);
  }
  ConflictStructure Structure() const override { return {}; }

 private:
  const ConflictOracle& inner_;
};

TEST_P(ConflictPropertyTest, StructureFastPathMatchesGenericReference) {
  // The coloring's layered routes (incremental group index + CSR and
  // threshold streaming through the slot cache) must be byte-identical to
  // the opaque route, which reads every forbidden color from
  // AppendForbiddenColors — from scratch and when resuming a partial
  // coloring, where the layered routes seed their index from `initial`.
  Rng rng(seed() * 613 + 11);
  size_t n = 40 + static_cast<size_t>(rng.UniformInt(0, 60));
  Table t = RandomTable(rng, n, mix());
  auto bound = BindAll(RandomDcs(rng, mix()), t);
  ASSERT_TRUE(bound.ok());
  std::vector<uint32_t> rows;
  for (uint32_t i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.9)) rows.push_back(i);
  }
  auto oracle = PartitionConflictOracle::Build(t, bound.value(), rows);
  ASSERT_TRUE(oracle.ok()) << oracle.status();

  std::vector<int64_t> candidates;
  int64_t num_candidates = rng.UniformInt(2, 10);
  for (int64_t c = 0; c < num_candidates; ++c) candidates.push_back(c * 3);
  const OpaqueOracle generic(*oracle);
  ASSERT_TRUE(oracle->Structure().Decomposed());

  ListColoringResult fast = GreedyListColoring(*oracle, {}, candidates);
  ListColoringResult ref = GreedyListColoring(generic, {}, candidates);
  EXPECT_EQ(fast.colors, ref.colors);
  EXPECT_EQ(fast.skipped, ref.skipped);

  // Resume: pre-color a random subset (including colors outside the
  // candidate list, which no route may ever mark).
  std::vector<int64_t> initial(rows.size(), kNoColor);
  for (size_t v = 0; v < rows.size(); ++v) {
    if (rng.Bernoulli(0.4)) {
      initial[v] = rng.Bernoulli(0.8) ? candidates[static_cast<size_t>(
                                            rng.UniformInt(0, num_candidates - 1))]
                                      : int64_t{1000};
    }
  }
  fast = GreedyListColoring(*oracle, initial, candidates);
  ref = GreedyListColoring(generic, initial, candidates);
  EXPECT_EQ(fast.colors, ref.colors);
  EXPECT_EQ(fast.skipped, ref.skipped);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConflictPropertyTest,
                         ::testing::ValuesIn(Seeds(DcMix::kGeneral)));
INSTANTIATE_TEST_SUITE_P(ThresholdSeeds, ConflictPropertyTest,
                         ::testing::ValuesIn(Seeds(DcMix::kThreshold)));

TEST(FlatPoolBudgetTest, EntryPoolChargeTriggersNaiveFallback) {
  // The flattened indexed build materializes one contiguous Entry pool (3
  // words per side-1 vertex) before emitting any pair. That pool must be
  // charged against max_materialized_pairs: this DC's ordering atom never
  // holds (Age0 < Age1 - 1000 with ages in [0, 90]), so it emits ZERO pairs —
  // a budget below the pool size but above the pair count only trips if the
  // pool itself is charged, and the factory must then hand back the naive
  // fallback with identical semantics.
  constexpr size_t n = 200;
  Rng rng(2024);
  Table t = RandomTable(rng, n);
  DenialConstraint dc(2, "never-holds");
  dc.Binary(0, "Age", CompareOp::kLt, 1, "Age", -1000);
  auto bound = BindAll({dc}, t);
  ASSERT_TRUE(bound.ok());
  std::vector<uint32_t> rows(n);
  for (uint32_t i = 0; i < n; ++i) rows[i] = i;

  auto full = BuildPartitionOracle(t, bound.value(), rows);
  ASSERT_TRUE(full.ok()) << full.status();
  auto* indexed = dynamic_cast<PartitionConflictOracle*>(full->get());
  ASSERT_NE(indexed, nullptr);
  EXPECT_EQ(indexed->num_materialized_pairs(), 0u);

  ConflictOracleOptions tiny;
  tiny.max_materialized_pairs = n;  // < 3n pool words, > 0 emitted pairs
  auto fallback = BuildPartitionOracle(t, bound.value(), rows, tiny);
  ASSERT_TRUE(fallback.ok()) << fallback.status();
  EXPECT_EQ(dynamic_cast<PartitionConflictOracle*>(fallback->get()), nullptr)
      << "tiny budget must reject the flat pool and fall back to naive";

  // Fallback semantics stay identical to the full indexed build.
  for (size_t u = 0; u < n; ++u) {
    EXPECT_EQ((*fallback)->Degree(u), (*full)->Degree(u));
  }
  std::vector<int64_t> candidates = {0, 7, 14};
  ListColoringResult a = GreedyListColoring(**full, {}, candidates);
  ListColoringResult b = GreedyListColoring(**fallback, {}, candidates);
  EXPECT_EQ(a.colors, b.colors);
  EXPECT_EQ(a.skipped, b.skipped);
}

TEST(ImplicitCliqueTest, CliquePartitionBuildsWithoutMaterializedPairs) {
  // Acceptance: a clique-style partition (single no-cross-atom DC, n = 4096)
  // builds its oracle in O(n) memory — no materialized pair list and no
  // naive fallback — even with a pair budget far below the ~8.4M clique
  // edges.
  constexpr size_t n = 4096;
  Schema schema{{"Rel", DataType::kString}};
  Table t{schema};
  for (size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(t.AppendRow({Value("Owner")}).ok());
  }
  DenialConstraint dc(2, "owner-owner");
  dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
  dc.Unary(1, "Rel", CompareOp::kEq, Value("Owner"));
  auto bound = BindAll({dc}, t);
  ASSERT_TRUE(bound.ok());
  std::vector<uint32_t> rows(n);
  for (uint32_t i = 0; i < n; ++i) rows[i] = i;

  ConflictOracleOptions tiny;
  tiny.max_materialized_pairs = 1000;  // << n(n-1)/2
  auto oracle = BuildPartitionOracle(t, bound.value(), rows, tiny);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  auto* indexed = dynamic_cast<PartitionConflictOracle*>(oracle->get());
  ASSERT_NE(indexed, nullptr) << "clique DC fell back to the naive oracle";
  EXPECT_EQ(indexed->num_implicit_bicliques(), 1u);
  EXPECT_EQ(indexed->num_materialized_pairs(), 0u);
  EXPECT_EQ(indexed->CountEdges(), n * (n - 1) / 2);
  for (size_t v : {size_t{0}, size_t{17}, n - 1}) {
    EXPECT_EQ(indexed->Degree(v), static_cast<int64_t>(n - 1));
  }
  EXPECT_TRUE(indexed->PairConflicts(0, n - 1));
  EXPECT_FALSE(indexed->PairConflicts(5, 5));
  std::vector<int64_t> colors(n, kNoColor);
  colors[1] = colors[2] = colors[3] = 4;
  EXPECT_GT(ForbiddenSet(*indexed, 0, colors).count(4), 0u);
  // A full greedy coloring with n candidates assigns every vertex a distinct
  // color without ever materializing an edge.
  std::vector<int64_t> candidates;
  for (int64_t c = 0; c < static_cast<int64_t>(n); ++c)
    candidates.push_back(c);
  ListColoringResult coloring = GreedyListColoring(*indexed, {}, candidates);
  EXPECT_TRUE(coloring.skipped.empty());
  std::set<int64_t> distinct(coloring.colors.begin(), coloring.colors.end());
  EXPECT_EQ(distinct.size(), n);
}

TEST(ThresholdLayerTest, AgeGapPartitionBuildsWithoutMaterializedPairs) {
  // A census-style partition (n = 4096 owners and children, one age-gap
  // .low/.high pair) builds its oracle in O(n) memory: both DCs land in the
  // threshold layer, no pair is materialized and the naive oracle is not
  // needed, even with a pair budget far below the millions of conflicts.
  constexpr size_t n = 4096;
  Schema schema{{"Rel", DataType::kString}, {"Age", DataType::kInt64}};
  Table t{schema};
  Rng rng(4096);
  for (size_t i = 0; i < n; ++i) {
    const bool owner = i % 4 == 0;
    ASSERT_TRUE(t.AppendRow({Value(owner ? "Owner" : "Child"),
                             Value(owner ? rng.UniformInt(20, 90)
                                         : rng.UniformInt(0, 60))})
                    .ok());
  }
  std::vector<DenialConstraint> dcs;
  AddAgeGapPair(&dcs, "Child", -40, -15);
  auto bound = BindAll(dcs, t);
  ASSERT_TRUE(bound.ok());
  std::vector<uint32_t> rows(n);
  for (uint32_t i = 0; i < n; ++i) rows[i] = i;

  ConflictOracleOptions tiny;
  tiny.max_materialized_pairs = 1 << 16;
  BuildOracleInfo info;
  auto oracle = BuildPartitionOracle(t, bound.value(), rows, tiny, &info);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  EXPECT_FALSE(info.naive_fallback);
  auto* indexed = dynamic_cast<PartitionConflictOracle*>(oracle->get());
  ASSERT_NE(indexed, nullptr) << "age-gap DCs fell back to the naive oracle";
  EXPECT_EQ(indexed->num_materialized_pairs(), 0u);
  EXPECT_EQ(indexed->num_threshold_dcs(), 2u);
  EXPECT_EQ(info.max_partition_pairs, 0u);

  auto naive = NaiveConflictOracle::Build(t, bound.value(), rows);
  ASSERT_TRUE(naive.ok());
  EXPECT_GT(indexed->CountEdges(), size_t{1} << 20);
  EXPECT_EQ(indexed->CountEdges(), naive->CountEdges());
  for (size_t v = 0; v < n; ++v) {
    ASSERT_EQ(indexed->Degree(v), naive->Degree(v)) << "vertex " << v;
  }
  std::vector<int64_t> candidates;
  for (int64_t c = 0; c < 64; ++c) candidates.push_back(c);
  ListColoringResult a = GreedyListColoring(*indexed, {}, candidates);
  ListColoringResult b = GreedyListColoring(*naive, {}, candidates);
  EXPECT_EQ(a.colors, b.colors);
  EXPECT_EQ(a.skipped, b.skipped);
}

TEST(ThresholdLayerTest, AdmissionFollowsTheOverlapRule) {
  // Which ordering DCs the threshold layer takes, shape by shape; every
  // configuration must still match the naive oracle exactly.
  Schema schema{{"Rel", DataType::kString}, {"Age", DataType::kInt64}};
  Table t{schema};
  const char* rels[] = {"Owner", "Parent", "Grandchild", "Child", "Spouse"};
  for (int64_t i = 0; i < 60; ++i) {
    ASSERT_TRUE(
        t.AppendRow({Value(rels[i % 5]), Value((i * 37) % 90)}).ok());
  }
  std::vector<uint32_t> rows(60);
  for (uint32_t i = 0; i < 60; ++i) rows[i] = i;
  DenialConstraint owner_owner(2, "owner-owner");
  owner_owner.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
  owner_owner.Unary(1, "Rel", CompareOp::kEq, Value("Owner"));
  DenialConstraint young_owner_child(2, "young-owner-child");
  young_owner_child.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
  young_owner_child.Unary(0, "Age", CompareOp::kLt, Value(int64_t{40}));
  young_owner_child.Unary(1, "Rel", CompareOp::kEq, Value("Child"));
  DenialConstraint child_high(2, "child.high");
  child_high.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
  child_high.Unary(1, "Rel", CompareOp::kEq, Value("Child"));
  child_high.Binary(1, "Age", CompareOp::kGe, 0, "Age", -15);
  DenialConstraint spouse_gap(2, "spouse-gap");
  spouse_gap.Unary(0, "Rel", CompareOp::kEq, Value("Spouse"));
  spouse_gap.Unary(1, "Rel", CompareOp::kEq, Value("Spouse"));
  spouse_gap.Binary(1, "Age", CompareOp::kGt, 0, "Age", 25);
  std::vector<DenialConstraint> parent_gap, grandchild_gap;
  AddAgeGapPair(&parent_gap, "Parent", -30, 10);
  // Half-lines d < -10 and d > -40 meet: the pair overlaps itself.
  AddAgeGapPair(&grandchild_gap, "Grandchild", -10, -40);

  struct Case {
    const char* label;
    std::vector<DenialConstraint> dcs;
    size_t thresholds;
  };
  auto with = [](std::vector<DenialConstraint> a,
                 const std::vector<DenialConstraint>& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
  };
  const std::vector<Case> cases = {
      {"disjoint .low/.high next to a biclique",
       with({owner_owner}, parent_gap), 2},
      {"overlapping half-lines fall back", with(parent_gap, grandchild_gap),
       2},
      {"alone, an age-gap DC is admitted", {child_high}, 1},
      {"an age-gap DC overlapping a biclique falls back",
       {child_high, young_owner_child}, 0},
      {"sides sharing vertices fall back", {spouse_gap}, 0},
  };
  for (const Case& c : cases) {
    auto bound = BindAll(c.dcs, t);
    ASSERT_TRUE(bound.ok());
    auto indexed = PartitionConflictOracle::Build(t, bound.value(), rows);
    ASSERT_TRUE(indexed.ok()) << indexed.status();
    EXPECT_EQ(indexed->num_threshold_dcs(), c.thresholds) << c.label;
    auto naive = NaiveConflictOracle::Build(t, bound.value(), rows);
    ASSERT_TRUE(naive.ok());
    EXPECT_EQ(indexed->CountEdges(), naive->CountEdges()) << c.label;
    for (size_t u = 0; u < rows.size(); ++u) {
      EXPECT_EQ(indexed->Degree(u), naive->Degree(u)) << c.label;
      for (size_t v = u + 1; v < rows.size(); ++v) {
        EXPECT_EQ(indexed->PairConflicts(u, v), naive->PairConflicts(u, v))
            << c.label << " pair " << u << "," << v;
      }
    }
  }
}

TEST(ImplicitCliqueTest, MixedImplicitAndIndexedDegreesStaySimpleGraph) {
  // Two overlapping product DCs plus an equality-indexed DC: union degrees
  // must match a brute-force dedup pair scan (no double counting between the
  // implicit bicliques or against the CSR layer).
  Rng rng(71);
  Table t = RandomTable(rng, 64);
  std::vector<DenialConstraint> dcs;
  {
    DenialConstraint dc(2, "owner-owner");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Owner"));
    dcs.push_back(std::move(dc));
  }
  {
    DenialConstraint dc(2, "owner-anyone");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.UnaryIn(1, "Rel",
               {Value("Owner"), Value("Spouse"), Value("Child")});
    dcs.push_back(std::move(dc));
  }
  {
    DenialConstraint dc(2, "same-group");
    dc.Unary(0, "ML", CompareOp::kEq, Value(int64_t{1}));
    dc.Unary(1, "ML", CompareOp::kEq, Value(int64_t{1}));
    dc.Binary(0, "G", CompareOp::kEq, 1, "G");
    dcs.push_back(std::move(dc));
  }
  auto bound = BindAll(dcs, t);
  ASSERT_TRUE(bound.ok());
  std::vector<uint32_t> rows(64);
  for (uint32_t i = 0; i < 64; ++i) rows[i] = i;
  auto indexed = PartitionConflictOracle::Build(t, bound.value(), rows);
  ASSERT_TRUE(indexed.ok()) << indexed.status();
  EXPECT_EQ(indexed->num_implicit_bicliques(), 2u);
  auto naive = NaiveConflictOracle::Build(t, bound.value(), rows);
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(indexed->CountEdges(), naive->CountEdges());
  for (size_t v = 0; v < 64; ++v) {
    EXPECT_EQ(indexed->Degree(v), naive->Degree(v)) << "vertex " << v;
  }
}

// The paper-example partition (Figure 7) through both oracles: a directed
// sanity anchor on top of the randomized sweep.
TEST(ConflictPropertyFixtureTest, PaperExampleChicagoPartitionMatches) {
  using testing_fixtures::MakePaperExample;
  auto ex = MakePaperExample();
  Table persons = ex.persons.Clone();
  size_t hid_col = persons.schema().IndexOrDie("hid");
  const int64_t hids[] = {2, 1, 3, 4, 3, 4, 4, 5, 6};
  for (size_t r = 0; r < persons.NumRows(); ++r)
    persons.SetCode(r, hid_col, hids[r]);
  auto v = MaterializeJoin(persons, ex.housing, ex.names);
  ASSERT_TRUE(v.ok());
  auto bound = BindAll(ex.dcs, v.value());
  ASSERT_TRUE(bound.ok());
  std::vector<uint32_t> rows = {0, 1, 2, 3, 4, 5, 6};
  auto indexed = PartitionConflictOracle::Build(v.value(), bound.value(), rows);
  auto naive = NaiveConflictOracle::Build(v.value(), bound.value(), rows);
  ASSERT_TRUE(indexed.ok());
  ASSERT_TRUE(naive.ok());
  EXPECT_EQ(indexed->CountEdges(), naive->CountEdges());
  for (size_t u = 0; u < rows.size(); ++u) {
    EXPECT_EQ(indexed->Degree(u), naive->Degree(u));
    for (size_t w = u + 1; w < rows.size(); ++w) {
      EXPECT_EQ(indexed->PairConflicts(u, w), naive->PairConflicts(u, w));
    }
  }
}

/// All rows of `t` as one partition.
std::vector<uint32_t> AllRows(const Table& t) {
  std::vector<uint32_t> rows(t.NumRows());
  for (uint32_t i = 0; i < rows.size(); ++i) rows[i] = i;
  return rows;
}

/// Colorings of `oracle` and of the naive oracle over the same rows must be
/// identical, from scratch and when resuming a partial coloring that holds
/// colors off the candidate list.
void ExpectColoringMatchesNaive(const ConflictOracle& oracle, const Table& t,
                                const std::vector<BoundDenialConstraint>& dcs,
                                const std::vector<uint32_t>& rows, Rng& rng) {
  auto naive = NaiveConflictOracle::Build(t, dcs, rows);
  ASSERT_TRUE(naive.ok()) << naive.status();
  const std::vector<int64_t> candidates = {0, 3, 6, 9, 12, 15};
  ListColoringResult a = GreedyListColoring(oracle, {}, candidates);
  ListColoringResult b = GreedyListColoring(*naive, {}, candidates);
  EXPECT_EQ(a.colors, b.colors);
  EXPECT_EQ(a.skipped, b.skipped);

  std::vector<int64_t> initial(rows.size(), kNoColor);
  for (int64_t& c : initial) {
    if (rng.Bernoulli(0.3)) {
      c = rng.Bernoulli(0.8)
              ? candidates[static_cast<size_t>(rng.UniformInt(0, 5))]
              : int64_t{1000};
    }
  }
  a = GreedyListColoring(oracle, initial, candidates);
  b = GreedyListColoring(*naive, initial, candidates);
  EXPECT_EQ(a.colors, b.colors);
  EXPECT_EQ(a.skipped, b.skipped);
}

TEST(ImplicitCliqueTest, ManySignatureGroupsColorLikeNaive) {
  // Overlapping product DCs whose side 0 cuts Age and side 1 picks a G, Rel
  // or ML value mint more than 256 signature groups; the coloring then
  // appends the implicit layer's colors per vertex instead of indexing
  // them, and must still color exactly like the naive oracle.
  Rng rng(256);
  Table t = RandomTable(rng, 900);
  const char* rels[] = {"Owner", "Spouse", "Child", "Other"};
  std::vector<DenialConstraint> dcs;
  for (int64_t k = 0; k < 16; ++k) {
    DenialConstraint dc(2, "product-" + std::to_string(k));
    dc.Unary(0, "Age", CompareOp::kLt, Value(6 * (k + 1)));
    switch (k % 3) {
      case 0:
        dc.Unary(1, "G", CompareOp::kEq, Value(k % 5));
        break;
      case 1:
        dc.Unary(1, "Rel", CompareOp::kEq, Value(rels[k % 4]));
        break;
      default:
        dc.Unary(1, "ML", CompareOp::kEq, Value(k % 2));
        break;
    }
    dcs.push_back(std::move(dc));
  }
  auto bound = BindAll(dcs, t);
  ASSERT_TRUE(bound.ok());
  const std::vector<uint32_t> rows = AllRows(t);
  auto oracle = PartitionConflictOracle::Build(t, bound.value(), rows);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  ASSERT_EQ(oracle->num_implicit_bicliques(), dcs.size());
  // 256 groups is where the coloring stops indexing the implicit layer.
  ASSERT_GT(oracle->Structure().implicit->num_groups(), 256u);
  ExpectColoringMatchesNaive(*oracle, t, bound.value(), rows, rng);
}

/// `count` product DCs, each with pairs: owners younger than 10 + k against
/// children. With `pairless`, one more product DC whose side 1 matches no
/// row.
std::vector<DenialConstraint> ProductDcs(size_t count, bool pairless) {
  std::vector<DenialConstraint> dcs;
  for (size_t k = 0; k < count; ++k) {
    DenialConstraint dc(2, "young-owner-child-" + std::to_string(k));
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(0, "Age", CompareOp::kLt,
             Value(static_cast<int64_t>(10 + k)));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Child"));
    dcs.push_back(std::move(dc));
  }
  if (pairless) {
    DenialConstraint dc(2, "nobody");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Nobody"));
    dcs.push_back(std::move(dc));
  }
  return dcs;
}

TEST(ImplicitCliqueTest, ProductDcsPastTheCapFallBackToNaive) {
  // The implicit family holds 32 bicliques. A 33rd product DC with pairs
  // makes the indexed build give up, so the partition takes the naive
  // oracle and colors exactly as it would; a product DC without pairs
  // takes no biclique and so does not count.
  Rng rng(33);
  Table t = RandomTable(rng, 120);
  const std::vector<uint32_t> rows = AllRows(t);
  ASSERT_EQ(ImplicitBicliqueFamily::kMaxBicliques, 32u);
  struct Case {
    size_t count;
    bool pairless;
    bool naive;
  };
  for (const Case& c : {Case{32, false, false}, Case{32, true, false},
                        Case{33, false, true}}) {
    SCOPED_TRACE(testing::Message() << c.count << " product DCs"
                                    << (c.pairless ? " + one pairless" : ""));
    auto bound = BindAll(ProductDcs(c.count, c.pairless), t);
    ASSERT_TRUE(bound.ok());
    BuildOracleInfo info;
    auto oracle = BuildPartitionOracle(t, bound.value(), rows, {}, &info);
    ASSERT_TRUE(oracle.ok()) << oracle.status();
    EXPECT_EQ(info.naive_fallback, c.naive);
    EXPECT_EQ(dynamic_cast<PartitionConflictOracle*>(oracle->get()) ==
                  nullptr,
              c.naive);
    ExpectColoringMatchesNaive(**oracle, t, bound.value(), rows, rng);
  }
}

/// The smallest max_materialized_pairs under which `dcs` build the indexed
/// oracle over `rows` (binary search; the budget test is monotone).
size_t MinIndexedBudget(const Table& t,
                        const std::vector<BoundDenialConstraint>& dcs,
                        const std::vector<uint32_t>& rows) {
  size_t lo = 0, hi = size_t{1} << 24;
  while (lo < hi) {
    ConflictOracleOptions options;
    options.max_materialized_pairs = lo + (hi - lo) / 2;
    BuildOracleInfo info;
    auto oracle = BuildPartitionOracle(t, dcs, rows, options, &info);
    CEXTEND_CHECK(oracle.ok());
    if (info.naive_fallback) {
      lo = options.max_materialized_pairs + 1;
    } else {
      hi = options.max_materialized_pairs;
    }
  }
  return lo;
}

TEST(LayerBudgetTest, ImplicitAndThresholdWordsShareOneBudget) {
  // The threshold and implicit layers are both resident while pairs are
  // emitted, so their words are charged against one shared budget: a
  // budget that covers either layer alone but not both must fall back to
  // the naive oracle.
  Rng rng(4242);
  Table t = RandomTable(rng, 300, DcMix::kThreshold);
  const std::vector<uint32_t> rows = AllRows(t);
  std::vector<DenialConstraint> thresholds;
  AddAgeGapPair(&thresholds, "Parent", -30, 10);
  DenialConstraint spouses(2, "spouse-spouse");
  spouses.Unary(0, "Rel", CompareOp::kEq, Value("Spouse"));
  spouses.Unary(1, "Rel", CompareOp::kEq, Value("Spouse"));
  std::vector<DenialConstraint> both = thresholds;
  both.push_back(spouses);

  auto bound_thresholds = BindAll(thresholds, t);
  auto bound_product = BindAll({spouses}, t);
  auto bound_both = BindAll(both, t);
  ASSERT_TRUE(bound_thresholds.ok() && bound_product.ok() && bound_both.ok());
  auto layered = PartitionConflictOracle::Build(t, bound_both.value(), rows);
  ASSERT_TRUE(layered.ok()) << layered.status();
  ASSERT_EQ(layered->num_threshold_dcs(), 2u);
  ASSERT_EQ(layered->num_implicit_bicliques(), 1u);
  ASSERT_EQ(layered->num_materialized_pairs(), 0u);

  const size_t threshold_words =
      MinIndexedBudget(t, bound_thresholds.value(), rows);
  const size_t implicit_words =
      MinIndexedBudget(t, bound_product.value(), rows);
  ASSERT_GT(threshold_words, 1u);
  ASSERT_GT(implicit_words, 1u);
  EXPECT_EQ(MinIndexedBudget(t, bound_both.value(), rows),
            threshold_words + implicit_words);

  ConflictOracleOptions options;
  options.max_materialized_pairs = std::max(threshold_words, implicit_words);
  BuildOracleInfo info;
  auto oracle =
      BuildPartitionOracle(t, bound_both.value(), rows, options, &info);
  ASSERT_TRUE(oracle.ok()) << oracle.status();
  EXPECT_TRUE(info.naive_fallback);
  ExpectColoringMatchesNaive(**oracle, t, bound_both.value(), rows, rng);
}

}  // namespace
}  // namespace cextend
