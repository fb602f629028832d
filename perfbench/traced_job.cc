// `perfbench trace`: the job of job.cc, run stage by stage through the
// library's public functions so that each layer boundary gets a span from
// this file — nothing inside the library is instrumented. PlanCExtension is
// unrolled into MakeJoinView, RunHybridPhase1 and BuildSynthesisPlan, and
// ExecuteCExtensionPlan[Durable] into PreparePlan and
// ExecutePlan[Durable], with the same option defaulting solver.cc applies,
// so the output bytes equal the untraced job's (run.py checks the digest).
//
// Stage times the library only exposes as counters (HybridStats,
// Phase1IlpStats, PlanBuildTimings, Phase2Stats) are attached to their
// parent span as "counted" children: they enter the parent's self time but
// get no timestamps of their own. Spans go to a Chrome trace-event JSON
// file; the per-layer metrics go to stdout as one JSON line.

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>

#include "common.h"
#include "core/hybrid.h"
#include "core/plan.h"
#include "core/shard_executor.h"
#include "job.h"
#include "relational/csv.h"
#include "util/string_util.h"

namespace perfbench {
namespace {

using cextend::Phase2Options;
using cextend::Phase2Stats;
using cextend::RowSink;

/// In-memory span store, written out when the traced job ends. Thread-safe:
/// sink spans open on the executor's worker threads.
class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start = 0.0;  ///< seconds since the tracer's epoch
    double end = 0.0;
    /// The parent's counted children already contain this span's time
    /// (sink calls made inside the executor's coloring and repair timers).
    bool inside_counted = false;
    double counted_children = 0.0;
    std::vector<std::pair<std::string, double>> args;
  };

  int Begin(const std::string& name, int parent, bool inside_counted = false) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, parent, NowSeconds() - epoch_, 0.0,
                      inside_counted, 0.0, {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end = NowSeconds() - epoch_;
  }
  /// Records a counter-derived child stage of span `id`.
  void AddCounted(int id, const std::string& name, double seconds) {
    std::lock_guard<std::mutex> lock(mu_);
    Span& s = spans_[static_cast<size_t>(id)];
    s.counted_children += seconds;
    s.args.emplace_back(name, seconds);
  }
  std::vector<Span> Spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  double epoch_ = NowSeconds();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, int parent,
             bool inside_counted = false)
      : tracer_(tracer), id_(tracer.Begin(name, parent, inside_counted)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

/// Times every call into the wrapped sink as a `core.sink` span.
class TracedSink : public RowSink {
 public:
  TracedSink(RowSink* inner, Tracer& tracer, int parent)
      : inner_(inner), tracer_(tracer), parent_(parent) {}

  Status Begin(const cextend::PreparedPlan& prepared) override {
    ScopedSpan span(tracer_, "core.sink", parent_);
    return inner_->Begin(prepared);
  }
  Status Consume(const cextend::ResolvedShard& shard) override {
    ScopedSpan span(tracer_, "core.sink", parent_, /*inside_counted=*/true);
    return inner_->Consume(shard);
  }
  Status Finish() override {
    ScopedSpan span(tracer_, "core.sink", parent_);
    return inner_->Finish();
  }

 private:
  RowSink* inner_;
  Tracer& tracer_;
  int parent_;
};

double Dur(const Tracer::Span& s) { return s.end - s.start; }

/// Self time per span: its duration minus its real children (except those
/// already inside a counted child) and its counted children.
std::vector<double> SelfTimes(const std::vector<Tracer::Span>& spans) {
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    self[i] = Dur(spans[i]) - spans[i].counted_children;
  }
  for (const Tracer::Span& s : spans) {
    if (s.parent >= 0 && !s.inside_counted) {
      self[static_cast<size_t>(s.parent)] -= Dur(s);
    }
  }
  return self;
}

std::string ChromeTraceJson(const std::vector<Tracer::Span>& spans,
                            const std::vector<double>& self,
                            const std::string& job_id) {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    JsonLine args;
    args.Add("job", job_id)
        .Add("span_id", uint64_t{i})
        .AddRaw("parent_id", std::to_string(s.parent))
        .Add("self_us", self[i] * 1e6);
    for (const auto& [name, seconds] : s.args) {
      args.Add(name + "_us", seconds * 1e6);
    }
    std::string cat = s.name.substr(0, s.name.find('.'));
    out += cextend::StrFormat(
        "{\"name\": %s, \"cat\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
        "\"ts\": %.3f, \"dur\": %.3f, \"args\": %s}%s\n",
        JsonQuote(s.name).c_str(), JsonQuote(cat).c_str(), s.start * 1e6,
        Dur(s) * 1e6, args.str().c_str(), i + 1 < spans.size() ? "," : "");
  }
  return out + "]}\n";
}

uint64_t FileSize(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size)
                                        : 0;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Durable minus plain-stream ExecuteCExtensionPlan on the same plan, as
/// medians over `reps` alternating pairs. Also checks that both write the
/// bytes of the job's own stream.
StatusOr<double> StreamCheckpointOverhead(
    const JobArgs& args, const cextend::SynthesisPlan& plan,
    const Table& v_join, const Table& r1, const Table& r2,
    const PairSchema& names, const ConstraintSpec& spec, Tracer& tracer,
    int parent, int reps) {
  const cextend::SolverOptions options = JobSolverOptions(args);
  const std::string plan_bytes = plan.Serialize();
  cextend::DurableStreamSpec durable;
  durable.stream_path = args.out_dir + "/overhead_durable.txt";
  durable.manifest_path = durable.stream_path + ".manifest";
  const std::string plain_path = args.out_dir + "/overhead_plain.txt";
  auto fresh = [&]() -> StatusOr<cextend::PlannedCExtension> {
    CEXTEND_ASSIGN_OR_RETURN(cextend::SynthesisPlan p,
                             cextend::SynthesisPlan::Deserialize(plan_bytes));
    return cextend::PlannedCExtension{std::move(p), v_join.Clone(), {}, 0.0};
  };
  std::vector<double> durable_s, plain_s;
  for (int k = 0; k < 2 * reps; ++k) {
    bool run_durable = (k % 2 == 0) == (k / 2 % 2 == 0);
    CEXTEND_ASSIGN_OR_RETURN(cextend::PlannedCExtension planned, fresh());
    if (run_durable) {
      ScopedSpan span(tracer, "core.stream_checkpoint.durable_execute", parent);
      double t0 = NowSeconds();
      CEXTEND_RETURN_IF_ERROR(
          cextend::ExecuteCExtensionPlanDurable(std::move(planned), r1, r2,
                                                names, spec.dcs, durable,
                                                options)
              .status());
      durable_s.push_back(NowSeconds() - t0);
    } else {
      ScopedSpan span(tracer, "core.stream_checkpoint.plain_execute", parent);
      double t0 = NowSeconds();
      std::ofstream file(plain_path, std::ios::binary | std::ios::trunc);
      cextend::TextStreamSink text(file);
      CEXTEND_RETURN_IF_ERROR(
          cextend::ExecuteCExtensionPlan(std::move(planned), r1, r2, names,
                                         spec.dcs, options, &text)
              .status());
      file.close();
      if (!file) return Status::Internal("cannot write " + plain_path);
      plain_s.push_back(NowSeconds() - t0);
    }
  }
  CEXTEND_ASSIGN_OR_RETURN(uint64_t job_stream,
                           FilesDigest({args.stream_path()}));
  CEXTEND_ASSIGN_OR_RETURN(uint64_t durable_stream,
                           FilesDigest({durable.stream_path}));
  CEXTEND_ASSIGN_OR_RETURN(uint64_t plain_stream, FilesDigest({plain_path}));
  if (durable_stream != job_stream || plain_stream != job_stream) {
    return Status::Internal("re-executed stream bytes differ from the job's");
  }
  return Median(durable_s) - Median(plain_s);
}

Status RunTracedJob(const JobArgs& args, JsonLine& out) {
  Tracer tracer;
  const cextend::SolverOptions options = JobSolverOptions(args);
  std::optional<ScopedSpan> job(std::in_place, tracer, "job", -1);
  const int root = job->id();

  Table r1{Schema()}, r2{Schema()};
  Schema r1_schema, r2_schema;
  for (int side = 0; side < 2; ++side) {
    ScopedSpan span(tracer, "relational.read_csv", root);
    const std::string& spec_str = side == 0 ? args.r1_schema : args.r2_schema;
    const std::string& path = side == 0 ? args.r1_path : args.r2_path;
    CEXTEND_ASSIGN_OR_RETURN(Schema schema, ParseSchemaSpec(spec_str));
    CEXTEND_ASSIGN_OR_RETURN(Table table, cextend::ReadCsv(path, schema));
    (side == 0 ? r1_schema : r2_schema) = schema;
    (side == 0 ? r1 : r2) = std::move(table);
  }
  PairSchema names;
  ConstraintSpec spec;
  {
    ScopedSpan span(tracer, "constraints.parse", root);
    CEXTEND_ASSIGN_OR_RETURN(
        names, PairSchema::Infer(r1, r2, args.key1, args.fk, args.key2));
    CEXTEND_ASSIGN_OR_RETURN(std::string text, ReadFile(args.constraints_path));
    CEXTEND_ASSIGN_OR_RETURN(
        spec, ParseSpecForPair(text, r1_schema, r2_schema, names));
  }

  // PlanCExtension, unrolled.
  std::optional<ScopedSpan> plan_span(std::in_place, tracer, "core.plan", root);
  Table v_join{Schema()};
  {
    ScopedSpan span(tracer, "core.join_view", plan_span->id());
    CEXTEND_RETURN_IF_ERROR(names.Validate(r1, r2));
    CEXTEND_ASSIGN_OR_RETURN(v_join, cextend::MakeJoinView(r1, r2, names));
  }
  cextend::HybridOptions phase1_options = options.phase1;
  if (phase1_options.seed == 1) phase1_options.seed = options.seed;
  cextend::HybridResult phase1;
  {
    ScopedSpan span(tracer, "core.phase1", plan_span->id());
    CEXTEND_ASSIGN_OR_RETURN(
        phase1, cextend::RunHybridPhase1(v_join, r2, names, spec.ccs, spec.dcs,
                                         phase1_options));
    const cextend::HybridStats& h = phase1.stats;
    tracer.AddCounted(span.id(), "constraints.classify", h.pairwise_seconds);
    tracer.AddCounted(span.id(), "core.binning", h.binning_seconds);
    tracer.AddCounted(span.id(), "core.hasse", h.recursion_seconds);
    tracer.AddCounted(span.id(), "ilp.phase1", h.ilp_seconds);
    tracer.AddCounted(span.id(), "core.final_fill", h.final_fill_seconds);
  }
  Phase2Options phase2_options = options.phase2;
  if (phase2_options.seed == 1) phase2_options.seed = options.seed;
  cextend::SynthesisPlanOptions plan_options;
  plan_options.seed = phase2_options.seed;
  plan_options.num_shards = phase2_options.num_shards;
  plan_options.num_threads_hint = phase2_options.num_threads;
  cextend::PlanBuildTimings timings;
  cextend::SynthesisPlan plan;
  {
    ScopedSpan span(tracer, "core.plan.build", plan_span->id());
    CEXTEND_ASSIGN_OR_RETURN(
        plan, cextend::BuildSynthesisPlan(v_join, r2, names, spec.ccs,
                                          phase1.invalid_rows, plan_options,
                                          &phase1.combos, &timings));
    tracer.AddCounted(span.id(), "core.plan.repair_select",
                      timings.selection_seconds);
    tracer.AddCounted(span.id(), "core.plan.layout", timings.layout_seconds);
  }
  plan_span.reset();

  // ExecuteCExtensionPlan[Durable], unrolled.
  std::optional<ScopedSpan> exec_span(std::in_place, tracer, "core.execute",
                                      root);
  cextend::TableSink table_sink(r1, r2, names);
  Phase2Stats p2;
  {
    std::optional<cextend::PreparedPlan> prepared;
    {
      ScopedSpan span(tracer, "core.plan.prepare", exec_span->id());
      CEXTEND_ASSIGN_OR_RETURN(
          prepared, cextend::PreparePlan(plan, v_join, r2, names, spec.dcs));
    }
    ScopedSpan span(tracer, "core.shard_executor.execute", exec_span->id());
    TracedSink sink(&table_sink, tracer, span.id());
    CEXTEND_ASSIGN_OR_RETURN(
        p2, args.stream
                ? cextend::ExecutePlanDurable(*prepared, phase2_options,
                                              JobStreamSpec(args), &sink)
                : cextend::ExecutePlan(*prepared, phase2_options, &sink));
    tracer.AddCounted(span.id(), "graph.coloring", p2.coloring_seconds);
    tracer.AddCounted(span.id(), "core.repair", p2.invalid_seconds);
  }
  cextend::Solution solution{std::move(table_sink.r1_hat()),
                             std::move(table_sink.r2_hat()), std::move(v_join),
                             {}};
  exec_span.reset();

  cextend::CcErrorReport cc_report;
  {
    ScopedSpan span(tracer, "constraints.cc_check", root);
    CEXTEND_ASSIGN_OR_RETURN(
        cc_report, cextend::EvaluateCcError(spec.ccs, solution.v_join));
  }
  cextend::DcErrorReport dc_report;
  {
    ScopedSpan span(tracer, "constraints.dc_check", root);
    CEXTEND_ASSIGN_OR_RETURN(
        dc_report,
        cextend::EvaluateDcError(spec.dcs, solution.r1_hat, names.fk));
  }
  for (const Table* t : {&solution.r1_hat, &solution.r2_hat}) {
    ScopedSpan span(tracer, "relational.write_csv", root);
    CEXTEND_RETURN_IF_ERROR(cextend::WriteCsv(
        *t, t == &solution.r1_hat ? args.out_r1() : args.out_r2()));
  }
  job.reset();

  // Output checks: timed, but outside the job.
  OutputCheck check;
  {
    ScopedSpan span(tracer, "checks", -1);
    CEXTEND_ASSIGN_OR_RETURN(
        check, CheckOutputs(args, solution, r2.NumRows(), names));
    tracer.AddCounted(span.id(), "constraints.join_check", check.join_check_s);
  }
  double overhead_s = 0.0;
  if (args.stream) {
    ScopedSpan span(tracer, "core.stream_checkpoint.overhead", -1);
    CEXTEND_ASSIGN_OR_RETURN(
        overhead_s,
        StreamCheckpointOverhead(args, plan, solution.v_join, r1, r2, names,
                                 spec, tracer, span.id(), 3));
  }

  std::vector<Tracer::Span> spans = tracer.Spans();
  std::vector<double> self = SelfTimes(spans);
  std::map<std::string, double> total, self_total;
  for (size_t i = 0; i < spans.size(); ++i) {
    total[spans[i].name] += Dur(spans[i]);
    self_total[spans[i].name] += self[i];
  }
  const Tracer::Span& job_span = spans[static_cast<size_t>(root)];
  double covered = 0.0;
  for (const Tracer::Span& s : spans) {
    if (s.parent == root) covered += Dur(s);
  }
  std::string job_id = args.out_dir.substr(args.out_dir.rfind('/') + 1);
  {
    std::ofstream trace(args.trace_out, std::ios::binary | std::ios::trunc);
    trace << ChromeTraceJson(spans, self, job_id);
    if (!trace) return Status::Internal("cannot write " + args.trace_out);
  }

  const cextend::HybridStats& h = phase1.stats;
  const cextend::Phase1IlpStats& ilp = h.ilp;
  size_t oracle_lookups =
      p2.repair_oracle_cache_hits + p2.repair_oracle_rebuilds;
  out.Add("job_s", Dur(job_span)).Add("covered_s", covered);
  AddOutputFields(cc_report, spec.ccs.size(), dc_report, p2.new_r2_tuples,
                  check, out);
  JsonLine layers;
  layers.Add("relational.read_csv_s", total["relational.read_csv"])
      .Add("relational.write_csv_s", total["relational.write_csv"])
      .Add("constraints.parse_s", total["constraints.parse"])
      .Add("constraints.classify_s", h.pairwise_seconds)
      .Add("core.join_view_s", total["core.join_view"])
      .Add("core.phase1_s", total["core.phase1"])
      .Add("core.binning_s", h.binning_seconds)
      .Add("core.hasse_s", h.recursion_seconds)
      .Add("core.final_fill_s", h.final_fill_seconds)
      .Add("core.phase1.self_s", self_total["core.phase1"])
      .Add("core.ccs_to_hasse", uint64_t{h.ccs_to_hasse})
      .Add("core.ccs_to_ilp", uint64_t{h.ccs_to_ilp})
      .Add("core.invalid_rows", uint64_t{phase1.invalid_rows.size()})
      .AddRaw("core.hasse_shortfall", std::to_string(h.hasse.shortfall))
      .Add("ilp.phase1_s", h.ilp_seconds)
      .Add("ilp.model_build_s", ilp.model_build_seconds)
      .Add("ilp.solve_s", ilp.solve_seconds)
      .AddRaw("ilp.lp_iterations", std::to_string(ilp.lp_iterations))
      .AddRaw("ilp.bnb_nodes", std::to_string(ilp.bnb_nodes))
      .Add("ilp.components", uint64_t{ilp.num_components})
      .Add("ilp.warm_ratio",
           ilp.bnb_nodes > 0 ? static_cast<double>(ilp.warm_solves) /
                                   static_cast<double>(ilp.bnb_nodes)
                             : 0.0)
      .Add("core.plan.build_s", total["core.plan.build"])
      .Add("core.plan.build.self_s", self_total["core.plan.build"])
      .Add("core.plan.repair_select_s", timings.selection_seconds)
      .Add("core.plan.layout_s", timings.layout_seconds)
      .Add("core.plan.prepare_s", total["core.plan.prepare"])
      .Add("core.shard_executor.execute_s",
           total["core.shard_executor.execute"])
      .Add("core.shard_executor.self_s",
           self_total["core.shard_executor.execute"])
      .Add("graph.coloring_s", p2.coloring_seconds)
      .Add("core.repair_s", p2.invalid_seconds)
      .Add("graph.partitions", uint64_t{p2.num_partitions})
      .Add("graph.fresh_key_vertices", uint64_t{p2.skipped_vertices})
      .Add("core.repair_oracles", uint64_t{p2.repair_oracles})
      .Add("core.repair_oracle_hit_ratio",
           oracle_lookups > 0
               ? static_cast<double>(p2.repair_oracle_cache_hits) /
                     static_cast<double>(oracle_lookups)
               : 0.0)
      .Add("core.scan_probe_repairs", uint64_t{p2.scan_probe_repairs})
      .Add("core.naive_oracle_fallbacks", uint64_t{p2.naive_oracle_fallbacks})
      .Add("core.shards_emitted", uint64_t{p2.shards_emitted})
      .Add("core.peak_resident_bytes", uint64_t{p2.peak_resident_bytes})
      .Add("core.sink_s", total["core.sink"])
      .Add("core.stream_checkpoint.overhead_s", overhead_s)
      .Add("core.stream_checkpoint.commits", uint64_t{p2.manifest_commits})
      .Add("core.stream_checkpoint.bytes",
           args.stream ? FileSize(args.stream_path()) +
                             FileSize(args.manifest_path())
                       : uint64_t{0})
      .Add("constraints.cc_check_s", total["constraints.cc_check"])
      .Add("constraints.dc_check_s", total["constraints.dc_check"])
      .Add("constraints.join_check_s", check.join_check_s)
      .Add("job.self_s", self[static_cast<size_t>(root)]);
  out.AddRaw("layers", layers.str());
  JsonLine self_by_span;
  for (const auto& [name, seconds] : self_total) {
    self_by_span.Add(name, seconds);
  }
  out.AddRaw("self_s", self_by_span.str());
  return Status::Ok();
}

}  // namespace

int TracedJobMain(int argc, char** argv) {
  StatusOr<JobArgs> args = ParseJobArgs(argc, argv, 2);
  if (args.ok() && args->trace_out.empty()) {
    args = Status::InvalidArgument("trace needs --trace-out");
  }
  JsonLine out;
  Status st = args.ok() ? RunTracedJob(*args, out) : args.status();
  out.Add("ok", st.ok());
  if (!st.ok()) out.Add("error", st.ToString());
  std::printf("%s\n", out.str().c_str());
  return st.ok() ? 0 : 1;
}

}  // namespace perfbench
