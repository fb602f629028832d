// Component decomposition of the phase-I ILP: the union-find split must
// produce the same quality of solution as the monolithic model (equal
// optimal slack — the optimum value is unique even when the argmin is not),
// and the decomposed parallel solve must be bit-identical across thread
// counts (1/2/8), the same determinism bar phase II meets.

#include <vector>

#include <gtest/gtest.h>

#include "constraints/metrics.h"
#include "core/phase1_ilp.h"
#include "core/phase1_ilp_internal.h"
#include "datagen/census.h"
#include "datagen/constraint_gen.h"
#include "test_util.h"

namespace cextend {
namespace {

/// A seeded census-backed phase-1 instance (fresh join view + fill state per
/// call so repeated runs start from identical state).
struct Phase1Instance {
  std::unique_ptr<Table> v_join;
  std::unique_ptr<Binning> binning;
  std::unique_ptr<ComboIndex> combos;
  std::unique_ptr<FillState> state;
};

Phase1Instance MakeInstance(const datagen::CensusData& data,
                            const std::vector<CardinalityConstraint>& ccs) {
  Phase1Instance inst;
  auto v = MakeJoinView(data.persons, data.housing, data.names);
  CEXTEND_CHECK(v.ok());
  inst.v_join = std::make_unique<Table>(std::move(v).value());
  auto binning = Binning::Create(*inst.v_join, data.names.r1_attrs, ccs);
  CEXTEND_CHECK(binning.ok());
  inst.binning = std::make_unique<Binning>(std::move(binning).value());
  auto combos = ComboIndex::Build(data.housing, data.names);
  CEXTEND_CHECK(combos.ok());
  inst.combos = std::make_unique<ComboIndex>(std::move(combos).value());
  auto state = FillState::Create(inst.v_join.get(), data.names, inst.binning.get());
  CEXTEND_CHECK(state.ok());
  inst.state = std::make_unique<FillState>(std::move(state).value());
  return inst;
}

datagen::CensusData MakeData(uint64_t seed) {
  datagen::CensusOptions options;
  options.num_persons = 900;
  options.num_households = 350;
  options.seed = seed;
  auto data = datagen::GenerateCensus(options);
  CEXTEND_CHECK(data.ok());
  return std::move(data).value();
}

std::vector<CardinalityConstraint> MakeCcs(const datagen::CensusData& data,
                                           size_t num_ccs, uint64_t seed) {
  datagen::CcFamilyOptions options;
  options.num_ccs = num_ccs;
  options.seed = seed;
  auto ccs = datagen::GenerateCcs(data, options);
  CEXTEND_CHECK(ccs.ok());
  return std::move(ccs).value();
}

std::vector<int64_t> BColumnCodes(const Phase1Instance& inst) {
  std::vector<int64_t> codes;
  codes.reserve(inst.v_join->NumRows() * inst.state->b_cols().size());
  for (size_t r = 0; r < inst.v_join->NumRows(); ++r) {
    for (size_t col : inst.state->b_cols()) {
      codes.push_back(inst.v_join->GetCode(r, col));
    }
  }
  return codes;
}

class DecomposeSeedTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DecomposeSeedTest, DecomposedMatchesMonolithicSlack) {
  datagen::CensusData data = MakeData(GetParam());
  std::vector<CardinalityConstraint> ccs = MakeCcs(data, 30, GetParam() * 3 + 1);

  // Monolithic reference: one component holding every CC and every bin with
  // rows left (covered or not), the pre-decomposition encoding.
  Phase1Instance mono = MakeInstance(data, ccs);
  auto incidence =
      phase1_ilp_internal::MatchIncidence(*mono.state, *mono.combos, ccs);
  ASSERT_TRUE(incidence.ok());
  phase1_ilp_internal::Component all;
  for (size_t c = 0; c < ccs.size(); ++c) all.ccs.push_back(c);
  for (size_t bin = 0; bin < mono.binning->num_bins(); ++bin) {
    if (!mono.state->pool(bin).empty()) all.bins.push_back(bin);
  }
  Phase1IlpStats mono_stats;
  ASSERT_TRUE(phase1_ilp_internal::SolveComponents(
                  *mono.state, *mono.combos, ccs, *incidence, {all},
                  Phase1IlpOptions{}, &mono_stats)
                  .ok());

  Phase1Instance decomposed = MakeInstance(data, ccs);
  Phase1IlpStats dec_stats;
  ASSERT_TRUE(RunPhase1Ilp(*decomposed.state, *decomposed.combos, ccs,
                           Phase1IlpOptions{}, &dec_stats).ok());

  EXPECT_EQ(mono_stats.num_components, 1u);
  EXPECT_GE(dec_stats.num_components, 2u)
      << "seed produced a single component; decomposition untested";
  EXPECT_EQ(mono_stats.status, dec_stats.status);
  // Block-diagonal model: the global optimum is the sum of the component
  // optima, so the slack totals must agree exactly (up to fp noise) even
  // when the chosen assignments differ.
  EXPECT_NEAR(mono_stats.slack_total, dec_stats.slack_total, 1e-6);
  // Both solutions realize their slack: the CC error totals agree too.
  auto mono_report = EvaluateCcError(ccs, *mono.v_join);
  auto dec_report = EvaluateCcError(ccs, *decomposed.v_join);
  ASSERT_TRUE(mono_report.ok());
  ASSERT_TRUE(dec_report.ok());
  EXPECT_EQ(mono_report->num_exact, dec_report->num_exact);
}

TEST_P(DecomposeSeedTest, BitIdenticalAcrossThreadCounts) {
  datagen::CensusData data = MakeData(GetParam() + 100);
  std::vector<CardinalityConstraint> ccs = MakeCcs(data, 30, GetParam() * 7 + 5);

  std::vector<int64_t> reference;
  Phase1IlpStats reference_stats;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    Phase1Instance inst = MakeInstance(data, ccs);
    Phase1IlpOptions options;
    options.num_threads = threads;
    Phase1IlpStats stats;
    ASSERT_TRUE(RunPhase1Ilp(*inst.state, *inst.combos, ccs, options,
                             &stats).ok());
    std::vector<int64_t> codes = BColumnCodes(inst);
    if (threads == 1) {
      reference = std::move(codes);
      reference_stats = stats;
      continue;
    }
    // Bit-identical assignments and identical solver trajectories.
    ASSERT_EQ(codes, reference) << "thread count " << threads
                                << " changed the phase-1 assignment";
    EXPECT_EQ(stats.num_components, reference_stats.num_components);
    EXPECT_EQ(stats.bnb_nodes, reference_stats.bnb_nodes);
    EXPECT_EQ(stats.lp_iterations, reference_stats.lp_iterations);
    EXPECT_EQ(stats.slack_total, reference_stats.slack_total);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecomposeSeedTest,
                         ::testing::Range<uint64_t>(1, 5));

}  // namespace
}  // namespace cextend
