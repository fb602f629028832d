// `perfbench job`: one untraced synthesis job, the calls cextend_cli's Run
// makes — ReadCsv x2, ParseConstraintSpec, PlanCExtension,
// ExecuteCExtensionPlan[Durable], EvaluateCcError + EvaluateDcError,
// WriteCsv x2 — timed as a whole (job_s) and around plan + execute
// (solve_s). Peak RSS is read as soon as the outputs are written; the
// output checks run after that and are not timed.

#include "job.h"

#include <cstdio>

#include "common.h"
#include "relational/csv.h"

namespace perfbench {

using cextend::Solution;

namespace {

Status RunJob(const JobArgs& args, JsonLine& out) {
  double job_start = NowSeconds();
  CEXTEND_ASSIGN_OR_RETURN(Schema r1_schema, ParseSchemaSpec(args.r1_schema));
  CEXTEND_ASSIGN_OR_RETURN(Schema r2_schema, ParseSchemaSpec(args.r2_schema));
  CEXTEND_ASSIGN_OR_RETURN(Table r1, cextend::ReadCsv(args.r1_path, r1_schema));
  CEXTEND_ASSIGN_OR_RETURN(Table r2, cextend::ReadCsv(args.r2_path, r2_schema));
  CEXTEND_ASSIGN_OR_RETURN(
      PairSchema names,
      PairSchema::Infer(r1, r2, args.key1, args.fk, args.key2));
  CEXTEND_ASSIGN_OR_RETURN(std::string spec_text,
                           ReadFile(args.constraints_path));
  CEXTEND_ASSIGN_OR_RETURN(
      ConstraintSpec spec,
      ParseSpecForPair(spec_text, r1_schema, r2_schema, names));

  cextend::SolverOptions options = JobSolverOptions(args);
  double solve_start = NowSeconds();
  CEXTEND_ASSIGN_OR_RETURN(
      cextend::PlannedCExtension planned,
      cextend::PlanCExtension(r1, r2, names, spec.ccs, spec.dcs, options));
  StatusOr<Solution> solved =
      args.stream ? cextend::ExecuteCExtensionPlanDurable(
                        std::move(planned), r1, r2, names, spec.dcs,
                        JobStreamSpec(args), options)
                  : cextend::ExecuteCExtensionPlan(std::move(planned), r1, r2,
                                                   names, spec.dcs, options);
  CEXTEND_RETURN_IF_ERROR(solved.status());
  Solution& solution = *solved;
  double solve_s = NowSeconds() - solve_start;

  CEXTEND_ASSIGN_OR_RETURN(
      cextend::CcErrorReport cc_report,
      cextend::EvaluateCcError(spec.ccs, solution.v_join));
  CEXTEND_ASSIGN_OR_RETURN(
      cextend::DcErrorReport dc_report,
      cextend::EvaluateDcError(spec.dcs, solution.r1_hat, names.fk));
  CEXTEND_RETURN_IF_ERROR(cextend::WriteCsv(solution.r1_hat, args.out_r1()));
  CEXTEND_RETURN_IF_ERROR(cextend::WriteCsv(solution.r2_hat, args.out_r2()));
  double job_s = NowSeconds() - job_start;
  double max_rss_mb = MaxRssMb();

  CEXTEND_ASSIGN_OR_RETURN(OutputCheck check,
                           CheckOutputs(args, solution, r2.NumRows(), names));
  out.Add("job_s", job_s).Add("solve_s", solve_s).Add("max_rss_mb", max_rss_mb);
  AddOutputFields(cc_report, spec.ccs.size(), dc_report,
                  solution.stats.phase2.new_r2_tuples, check, out);
  return Status::Ok();
}

}  // namespace

int JobMain(int argc, char** argv) {
  StatusOr<JobArgs> args = ParseJobArgs(argc, argv, 2);
  JsonLine out;
  Status st = args.ok() ? RunJob(*args, out) : args.status();
  out.Add("ok", st.ok());
  if (!st.ok()) out.Add("error", st.ToString());
  std::printf("%s\n", out.str().c_str());
  return st.ok() ? 0 : 1;
}

}  // namespace perfbench
