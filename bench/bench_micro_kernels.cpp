// Micro-benchmarks (google-benchmark) for the algorithmic kernels: simplex
// LP solves, conflict-oracle construction, greedy list coloring, CC pairwise
// classification, binning, repair selection, the final fill, and the DC
// output check.
//
// Every per-size run additionally appends one JSON-lines record
//   {"kernel": "<name>", "n": <arg>, "seconds": <time per iteration>}
// to the phase-2 perf trajectory (default `BENCH_phase2.json`, overridable
// via CEXTEND_BENCH_MICRO_JSON; set it to `off` to disable). The committed
// trajectory is the baseline that `tools/bench_diff.py` gates CI against;
// regenerate it with a Release build as documented in bench/README.md.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "constraints/metrics.h"
#include "constraints/relationship.h"
#include "core/binning.h"
#include "core/conflict.h"
#include "core/fill_state.h"
#include "core/join_view.h"
#include "core/phase1_hasse.h"
#include "core/plan.h"
#include "datagen/census.h"
#include "datagen/constraint_gen.h"
#include "graph/hypergraph.h"
#include "graph/list_coloring.h"
#include "ilp/solver.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace cextend {
namespace {

// ---- Conflict-oracle construction + partition coloring. ----
//
// One census-shaped partition: Rel/Age/ML/G columns with the paper's DC
// shapes — an owner-owner clique DC (no cross atoms), an age-gap ordering
// DC, and an equality-bucketed group DC. The group DC shares pairs with the
// age-gap DC, so both materialize pairs. This is the phase-2 hot path.

struct PartitionFixture {
  Table table;
  std::vector<BoundDenialConstraint> dcs;
  std::vector<uint32_t> rows;
  std::vector<int64_t> candidates;
};

PartitionFixture MakePartitionFixture(size_t n) {
  Rng rng(29);
  Schema schema{{"Rel", DataType::kString},
                {"Age", DataType::kInt64},
                {"ML", DataType::kInt64},
                {"G", DataType::kInt64}};
  Table t{schema};
  const char* rels[] = {"Owner", "Spouse", "Child", "Other"};
  for (size_t i = 0; i < n; ++i) {
    CEXTEND_CHECK(t.AppendRow({Value(rels[rng.UniformInt(0, 3)]),
                               Value(rng.UniformInt(0, 90)),
                               Value(rng.UniformInt(0, 1)),
                               Value(rng.UniformInt(0, 63))})
                      .ok());
  }
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
    dc.Binary(1, "Age", CompareOp::kLt, 0, "Age", -50);
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
  CEXTEND_CHECK(bound.ok());
  PartitionFixture fixture{std::move(t), std::move(bound).value(), {}, {}};
  for (uint32_t i = 0; i < n; ++i) fixture.rows.push_back(i);
  for (int64_t c = 0; c < 64; ++c) fixture.candidates.push_back(c);
  return fixture;
}

void BM_ConflictBuildIndexed(benchmark::State& state) {
  PartitionFixture f = MakePartitionFixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto oracle = PartitionConflictOracle::Build(f.table, f.dcs, f.rows);
    CEXTEND_CHECK(oracle.ok());
    benchmark::DoNotOptimize(oracle->CountEdges());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ConflictBuildIndexed)->Arg(512)->Arg(2048)->Arg(4096)->Complexity();

void BM_ConflictBuildNaive(benchmark::State& state) {
  PartitionFixture f = MakePartitionFixture(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto oracle = NaiveConflictOracle::Build(f.table, f.dcs, f.rows);
    CEXTEND_CHECK(oracle.ok());
    benchmark::DoNotOptimize(oracle->CountEdges());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ConflictBuildNaive)->Arg(512)->Arg(2048)->Complexity();

void BM_PartitionColoringIndexed(benchmark::State& state) {
  PartitionFixture f = MakePartitionFixture(static_cast<size_t>(state.range(0)));
  auto oracle = PartitionConflictOracle::Build(f.table, f.dcs, f.rows);
  CEXTEND_CHECK(oracle.ok());
  for (auto _ : state) {
    ListColoringResult r = GreedyListColoring(*oracle, {}, f.candidates);
    benchmark::DoNotOptimize(r.colors.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PartitionColoringIndexed)
    ->Arg(512)->Arg(2048)->Arg(4096)->Complexity();

void BM_PartitionColoringNaive(benchmark::State& state) {
  PartitionFixture f = MakePartitionFixture(static_cast<size_t>(state.range(0)));
  auto oracle = NaiveConflictOracle::Build(f.table, f.dcs, f.rows);
  CEXTEND_CHECK(oracle.ok());
  for (auto _ : state) {
    ListColoringResult r = GreedyListColoring(*oracle, {}, f.candidates);
    benchmark::DoNotOptimize(r.colors.data());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_PartitionColoringNaive)->Arg(512)->Arg(2048)->Complexity();

void BM_ConflictBuildImplicitClique(benchmark::State& state) {
  // Single no-cross-atom DC over an all-matching partition: the implicit
  // biclique representation keeps construction O(n) (no materialized pair
  // list), where the CSR path would cost Θ(n²) memory and time.
  size_t n = static_cast<size_t>(state.range(0));
  Schema schema{{"Rel", DataType::kString}};
  Table t{schema};
  for (size_t i = 0; i < n; ++i) {
    CEXTEND_CHECK(t.AppendRow({Value("Owner")}).ok());
  }
  std::vector<DenialConstraint> dcs;
  {
    DenialConstraint dc(2, "owner-owner");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Owner"));
    dcs.push_back(std::move(dc));
  }
  auto bound = BindAll(dcs, t);
  CEXTEND_CHECK(bound.ok());
  std::vector<uint32_t> rows(n);
  for (uint32_t i = 0; i < n; ++i) rows[i] = i;
  for (auto _ : state) {
    auto oracle = PartitionConflictOracle::Build(t, bound.value(), rows);
    CEXTEND_CHECK(oracle.ok());
    CEXTEND_CHECK(oracle->num_materialized_pairs() == 0);
    benchmark::DoNotOptimize(oracle->CountEdges());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ConflictBuildImplicitClique)
    ->Arg(4096)->Arg(16384)->Arg(65536)->Complexity();

void BM_ConflictBuildThresholdDc(benchmark::State& state) {
  // A census age-gap partition: owners and children under a .low/.high
  // pair of one-ordering-atom DCs (DC1-style) next to an owner-owner
  // biclique. Both age-gap DCs land in the threshold layer — key-sorted
  // sides, O(n log n) build — where materializing them would emit a dense
  // share of the owner x child pairs.
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(31);
  Schema schema{{"Rel", DataType::kString}, {"Age", DataType::kInt64}};
  Table t{schema};
  for (size_t i = 0; i < n; ++i) {
    const bool owner = i % 4 == 0;
    CEXTEND_CHECK(t.AppendRow({Value(owner ? "Owner" : "Child"),
                               Value(owner ? rng.UniformInt(20, 90)
                                           : rng.UniformInt(0, 60))})
                      .ok());
  }
  std::vector<DenialConstraint> dcs;
  {
    DenialConstraint dc(2, "owner-owner");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Owner"));
    dcs.push_back(std::move(dc));
  }
  for (int side = 0; side < 2; ++side) {
    DenialConstraint dc(2, side == 0 ? "child.low" : "child.high");
    dc.Unary(0, "Rel", CompareOp::kEq, Value("Owner"));
    dc.Unary(1, "Rel", CompareOp::kEq, Value("Child"));
    if (side == 0) {
      dc.Binary(1, "Age", CompareOp::kLt, 0, "Age", -69);
    } else {
      dc.Binary(1, "Age", CompareOp::kGt, 0, "Age", -12);
    }
    dcs.push_back(std::move(dc));
  }
  auto bound = BindAll(dcs, t);
  CEXTEND_CHECK(bound.ok());
  std::vector<uint32_t> rows(n);
  for (uint32_t i = 0; i < n; ++i) rows[i] = i;
  for (auto _ : state) {
    auto oracle = PartitionConflictOracle::Build(t, bound.value(), rows);
    CEXTEND_CHECK(oracle.ok());
    CEXTEND_CHECK(oracle->num_threshold_dcs() == 2 &&
                  oracle->num_materialized_pairs() == 0);
    benchmark::DoNotOptimize(oracle->CountEdges());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_ConflictBuildThresholdDc)
    ->Arg(1024)->Arg(4096)->Arg(16384)->Complexity();

// ---- Phase-I signature kernels: repair selection and the final fill. ----
//
// Both choose combos from one fact, the set of CCs covering a row or bin, so
// they run once per distinct set. The fixture is housemate-shaped: R1 rows
// over Rel x Age x G (G is referenced by no CC, so it only multiplies bins),
// R2 with 32 areas x 4 types, 4 keys per combo. Owners are covered by one
// CC per area in the first half, and Age >= 60 by a Type CC; RepairSelection
// adds age bands so invalid rows carry many distinct signatures.

struct SignatureFixture {
  Table r1;
  Table r2;
  PairSchema names;
  std::vector<CardinalityConstraint> ccs;
};

SignatureFixture MakeSignatureFixture(size_t n, size_t age_bands) {
  Rng rng(41);
  Schema r1_schema{{"pid", DataType::kInt64},
                   {"Rel", DataType::kString},
                   {"Age", DataType::kInt64},
                   {"G", DataType::kInt64},
                   {"hid", DataType::kInt64}};
  Table r1{r1_schema};
  const char* rels[] = {"Owner", "Spouse", "Child", "Other"};
  for (size_t i = 0; i < n; ++i) {
    CEXTEND_CHECK(r1.AppendRow({Value(static_cast<int64_t>(i + 1)),
                                Value(rels[rng.UniformInt(0, 3)]),
                                Value(rng.UniformInt(0, 99)),
                                Value(rng.UniformInt(0, 511)), Value::Null()})
                      .ok());
  }
  Schema r2_schema{{"hid", DataType::kInt64},
                   {"Area", DataType::kString},
                   {"Type", DataType::kString}};
  Table r2{r2_schema};
  for (int64_t h = 0; h < 32 * 4 * 4; ++h) {
    CEXTEND_CHECK(r2.AppendRow({Value(h + 1), Value(StrFormat("a%lld",
                                                  static_cast<long long>(h % 32))),
                                Value(StrFormat("t%lld",
                                                static_cast<long long>(h / 32 % 4)))})
                      .ok());
  }
  auto names = PairSchema::Infer(r1, r2, "pid", "hid", "hid");
  CEXTEND_CHECK(names.ok());
  std::vector<CardinalityConstraint> ccs;
  for (int a = 0; a < 16; ++a) {
    CardinalityConstraint cc;
    cc.name = StrFormat("owner_a%d", a);
    cc.r1_condition.Eq("Rel", Value("Owner"));
    cc.r2_condition.Eq("Area", Value(StrFormat("a%d", a)));
    cc.target = 1;
    ccs.push_back(std::move(cc));
  }
  {
    CardinalityConstraint cc;
    cc.name = "senior_t0";
    cc.r1_condition.Between("Age", 60, 99);
    cc.r2_condition.Eq("Type", Value("t0"));
    cc.target = 1;
    ccs.push_back(std::move(cc));
  }
  for (size_t b = 0; b < age_bands; ++b) {
    CardinalityConstraint cc;
    cc.name = StrFormat("band_%zu", b);
    int64_t lo = static_cast<int64_t>(b * 100 / age_bands);
    cc.r1_condition.Between("Age", lo, lo + 9);
    cc.r2_condition.Eq("Area", Value(StrFormat("a%zu", (b * 5) % 32)));
    cc.target = 1;
    ccs.push_back(std::move(cc));
  }
  return SignatureFixture{std::move(r1), std::move(r2),
                          std::move(names).value(), std::move(ccs)};
}

void BM_RepairSelection(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  SignatureFixture f = MakeSignatureFixture(n, /*age_bands=*/24);
  auto v_join = MakeJoinView(f.r1, f.r2, f.names);
  CEXTEND_CHECK(v_join.ok());
  auto combos = ComboIndex::Build(f.r2, f.names);
  CEXTEND_CHECK(combos.ok());
  std::vector<uint32_t> invalid(n);
  for (size_t i = 0; i < n; ++i) invalid[i] = static_cast<uint32_t>(i);
  size_t signatures = 0;
  for (auto _ : state) {
    // Manual time: the selection pass alone, not the plan's combo layout.
    PlanBuildTimings timings;
    auto plan = BuildSynthesisPlan(*v_join, f.r2, f.names, f.ccs, invalid,
                                   SynthesisPlanOptions{}, &*combos, &timings);
    CEXTEND_CHECK(plan.ok());
    state.SetIterationTime(timings.selection_seconds);
    signatures = timings.repair_signatures;
  }
  state.counters["signatures"] = static_cast<double>(signatures);
}
BENCHMARK(BM_RepairSelection)->Arg(4096)->Arg(16384)->UseManualTime();

void BM_FinalFillSharedMasks(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  SignatureFixture f = MakeSignatureFixture(n, /*age_bands=*/0);
  auto combos = ComboIndex::Build(f.r2, f.names);
  CEXTEND_CHECK(combos.ok());
  FinalFillStats last;
  for (auto _ : state) {
    // Fresh pools per iteration; manual time covers the fill alone.
    auto v_join = MakeJoinView(f.r1, f.r2, f.names);
    CEXTEND_CHECK(v_join.ok());
    auto binning = Binning::Create(*v_join, f.names.r1_attrs, f.ccs);
    CEXTEND_CHECK(binning.ok());
    auto fill_state = FillState::Create(&*v_join, f.names, &*binning);
    CEXTEND_CHECK(fill_state.ok());
    Rng rng(1);
    FinalFillStats stats;
    Stopwatch watch;
    auto invalid = CompleteLeftoverRows(*fill_state, *combos, f.ccs, {},
                                        LeftoverMode::kAvoidCcs, rng, &stats);
    state.SetIterationTime(watch.ElapsedSeconds());
    CEXTEND_CHECK(invalid.ok() && invalid->empty());
    last = stats;
  }
  state.counters["bins"] = static_cast<double>(last.leftover_bins);
  state.counters["free_lists"] = static_cast<double>(last.free_lists);
}
BENCHMARK(BM_FinalFillSharedMasks)->Arg(8192)->UseManualTime();

// ---- Output verification: the DC check on one skewed FK group. ----
//
// First-fit coloring piles rows that conflict with nothing onto one key, so
// census output holds groups like one owner plus thousands of children.
// EvaluateDcError over S_all_DC must stay linear in such a group: a return
// to enumerating all same-FK pairs costs Θ(n²) per DC.

void BM_DcCheckSkewedGroup(benchmark::State& state) {
  size_t children = static_cast<size_t>(state.range(0));
  Rng rng(37);
  Schema schema{{"Age", DataType::kInt64},
                {"Rel", DataType::kString},
                {"MultiLing", DataType::kInt64},
                {"hid", DataType::kInt64}};
  Table t{schema};
  CEXTEND_CHECK(t.AppendRow({Value(int64_t{45}), Value(datagen::kOwner),
                             Value(int64_t{0}), Value(int64_t{1})})
                    .ok());
  for (size_t i = 0; i < children; ++i) {
    // Ages 0-30 keep every child within the owner's [A-69, A-12] window.
    CEXTEND_CHECK(t.AppendRow({Value(rng.UniformInt(0, 30)),
                               Value(datagen::kBioChild),
                               Value(rng.UniformInt(0, 1)), Value(int64_t{1})})
                      .ok());
  }
  std::vector<DenialConstraint> dcs =
      datagen::MakeCensusDcs(/*good_only=*/false);
  for (auto _ : state) {
    auto report = EvaluateDcError(dcs, t, "hid");
    CEXTEND_CHECK(report.ok() && report->num_violations == 0);
    benchmark::DoNotOptimize(report->num_violating_tuples);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_DcCheckSkewedGroup)->Arg(4000);

// ---- Simplex on random dense feasible LPs. ----
void BM_SimplexRandomLp(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  size_t m = n / 2;
  Rng rng(7);
  ilp::Model model;
  std::vector<double> witness(n);
  for (size_t j = 0; j < n; ++j) {
    model.AddVariable(1.0, false);
    witness[j] = static_cast<double>(rng.UniformInt(0, 5));
  }
  for (size_t i = 0; i < m; ++i) {
    std::vector<ilp::LinearTerm> terms;
    double rhs = 0.0;
    for (size_t j = 0; j < n; ++j) {
      if (rng.Bernoulli(0.3)) {
        terms.push_back({static_cast<int>(j), 1.0});
        rhs += witness[j];
      }
    }
    if (terms.empty()) continue;
    model.AddConstraint(std::move(terms), ilp::Sense::kEq, rhs);
  }
  for (auto _ : state) {
    ilp::LpResult result = ilp::SolveLp(model);
    benchmark::DoNotOptimize(result.objective);
  }
}
BENCHMARK(BM_SimplexRandomLp)->Arg(32)->Arg(128)->Arg(512);

// ---- Greedy list coloring on random graphs. ----
void BM_GreedyColoring(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(11);
  Hypergraph g(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(8.0 / static_cast<double>(n))) {
        g.AddEdge({static_cast<int>(i), static_cast<int>(j)});
      }
    }
  }
  std::vector<int64_t> candidates;
  for (int64_t c = 0; c < 32; ++c) candidates.push_back(c);
  for (auto _ : state) {
    ListColoringResult result = GreedyListColoring(g, {}, candidates);
    benchmark::DoNotOptimize(result.colors.data());
  }
}
BENCHMARK(BM_GreedyColoring)->Arg(256)->Arg(1024)->Arg(4096);

// ---- CC pairwise classification. ----
void BM_ClassifyAll(benchmark::State& state) {
  size_t num_ccs = static_cast<size_t>(state.range(0));
  datagen::CensusOptions census;
  census.num_persons = 1000;
  census.num_households = 400;
  auto data = datagen::GenerateCensus(census);
  CEXTEND_CHECK(data.ok());
  datagen::CcFamilyOptions cc_options;
  cc_options.num_ccs = num_ccs;
  auto ccs = datagen::GenerateCcs(data.value(), cc_options);
  CEXTEND_CHECK(ccs.ok());
  auto v = MakeJoinView(data->persons, data->housing, data->names);
  CEXTEND_CHECK(v.ok());
  for (auto _ : state) {
    auto matrix = ClassifyAll(*ccs, v->schema(), data->housing.schema());
    CEXTEND_CHECK(matrix.ok());
    benchmark::DoNotOptimize(matrix->matrix.data());
  }
  state.SetComplexityN(static_cast<int64_t>(num_ccs));
}
BENCHMARK(BM_ClassifyAll)->Arg(64)->Arg(201)->Arg(400)->Complexity();

// ---- Binning (intervalization + assignment). ----
void BM_Binning(benchmark::State& state) {
  size_t persons = static_cast<size_t>(state.range(0));
  datagen::CensusOptions census;
  census.num_persons = persons;
  census.num_households = persons * 2 / 5;
  auto data = datagen::GenerateCensus(census);
  CEXTEND_CHECK(data.ok());
  datagen::CcFamilyOptions cc_options;
  cc_options.num_ccs = 100;
  auto ccs = datagen::GenerateCcs(data.value(), cc_options);
  CEXTEND_CHECK(ccs.ok());
  auto v = MakeJoinView(data->persons, data->housing, data->names);
  CEXTEND_CHECK(v.ok());
  for (auto _ : state) {
    auto binning = Binning::Create(v.value(), data->names.r1_attrs, *ccs);
    CEXTEND_CHECK(binning.ok());
    benchmark::DoNotOptimize(binning->num_bins());
  }
}
BENCHMARK(BM_Binning)->Arg(2500)->Arg(10000);

// ---- JSON-lines trajectory reporter. ----
//
// Wraps the console reporter and appends one record per concrete benchmark
// run (aggregates and BigO/RMS complexity rows are skipped). The record key
// is the benchmark name split at the first '/': "BM_PartitionColoring/4096"
// becomes kernel "PartitionColoring", n 4096 (the leading "BM_" is dropped
// so records read like the ROADMAP kernels).
class JsonLinesReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    const char* path = getenv("CEXTEND_BENCH_MICRO_JSON");
    if (path != nullptr && strcmp(path, "off") == 0) return;
    if (path == nullptr || *path == '\0') path = "BENCH_phase2.json";
    FILE* f = fopen(path, "a");
    if (f == nullptr) return;  // perf log is best-effort
    for (const Run& run : runs) {
      if (run.run_type != Run::RT_Iteration) continue;
      std::string name = run.benchmark_name();
      if (name.rfind("BM_", 0) == 0) name = name.substr(3);
      size_t slash = name.find('/');
      long long n = 0;
      if (slash != std::string::npos) {
        n = atoll(name.c_str() + slash + 1);
        name = name.substr(0, slash);
      }
      // GetAdjustedRealTime is per-iteration time scaled into the run's
      // display unit (ns by default); divide the unit back out for seconds.
      double seconds = run.GetAdjustedRealTime() /
                       benchmark::GetTimeUnitMultiplier(run.time_unit);
      fprintf(f, "{\"kernel\": \"%s\", \"n\": %lld, \"seconds\": %.9f}\n",
              name.c_str(), n, seconds);
    }
    fclose(f);
  }
};

}  // namespace
}  // namespace cextend

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  cextend::JsonLinesReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
