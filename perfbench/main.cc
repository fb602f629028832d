// perfbench — the end-to-end synthesis-job benchmark binary. run.py drives
// it; each subcommand prints one JSON line to stdout.
//
//   perfbench gen --workload=NAME --seed=N --out-dir=DIR
//       Generates the workload's inputs and writes persons.csv,
//       housing.csv and constraints.txt; reports the time that took
//       (setup_s), the round-trip check and the job flags to use, whose
//       --seed (the solver seed) is N.
//   perfbench job <job flags>
//       One untraced job (job.cc).
//   perfbench trace <job flags> --trace-out=PATH
//       One traced job (traced_job.cc).
//   perfbench calibrate
//       Times a fixed workload that uses no library code (calibrate.cc).
//
// Job flags: --r1 --r1-schema --r2 --r2-schema --key1 --fk --key2
// --constraints --out-dir --seed --threads --stream=0|1 (see common.h).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "job.h"
#include "workload.h"

namespace perfbench {
namespace {

Status RunGen(int argc, char** argv, JsonLine& out) {
  std::string workload_name, out_dir;
  uint64_t seed = 0;
  bool have_seed = false;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--workload=", 0) == 0) {
      workload_name = arg.substr(11);
    } else if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
      have_seed = true;
    } else if (arg.rfind("--out-dir=", 0) == 0) {
      out_dir = arg.substr(10);
    } else {
      return Status::InvalidArgument("unknown flag " + arg);
    }
  }
  if (!have_seed || out_dir.empty()) {
    return Status::InvalidArgument("gen needs --workload, --seed, --out-dir");
  }
  CEXTEND_ASSIGN_OR_RETURN(Workload workload, FindWorkload(workload_name));

  double start = NowSeconds();
  CEXTEND_ASSIGN_OR_RETURN(GeneratedInputs inputs,
                           GenerateInputs(workload));
  CEXTEND_RETURN_IF_ERROR(WriteInputs(inputs, out_dir));
  double setup_s = NowSeconds() - start;

  Status round_trip = CheckRoundTrip(inputs, out_dir);
  CEXTEND_ASSIGN_OR_RETURN(
      uint64_t digest,
      FilesDigest({out_dir + "/persons.csv", out_dir + "/housing.csv",
                   out_dir + "/constraints.txt"}));
  const PairSchema& names = inputs.data.names;
  out.Add("setup_s", setup_s)
      .Add("round_trip_error", round_trip.ok() ? "" : round_trip.ToString())
      .Add("input_digest", Hex64(digest))
      .Add("persons", uint64_t{inputs.data.persons.NumRows()})
      .Add("households", uint64_t{inputs.data.housing.NumRows()})
      .Add("ccs", uint64_t{inputs.ccs.size()})
      .Add("dcs", uint64_t{inputs.dcs.size()});
  JsonLine flags;
  flags.Add("r1", out_dir + "/persons.csv")
      .Add("r1-schema", SchemaSpec(inputs.data.persons.schema()))
      .Add("r2", out_dir + "/housing.csv")
      .Add("r2-schema", SchemaSpec(inputs.data.housing.schema()))
      .Add("key1", names.key1)
      .Add("fk", names.fk)
      .Add("key2", names.key2)
      .Add("constraints", out_dir + "/constraints.txt")
      .Add("seed", std::to_string(seed))
      .Add("threads", std::to_string(workload.threads))
      .Add("stream", std::string(workload.stream ? "1" : "0"));
  out.AddRaw("job_flags", flags.str());
  return Status::Ok();
}

int GenMain(int argc, char** argv) {
  JsonLine out;
  Status st = RunGen(argc, argv, out);
  out.Add("ok", st.ok());
  if (!st.ok()) out.Add("error", st.ToString());
  std::printf("%s\n", out.str().c_str());
  return st.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const char* cmd = argc > 1 ? argv[1] : "";
  if (std::strcmp(cmd, "gen") == 0) return perfbench::GenMain(argc, argv);
  if (std::strcmp(cmd, "job") == 0) return perfbench::JobMain(argc, argv);
  if (std::strcmp(cmd, "trace") == 0) {
    return perfbench::TracedJobMain(argc, argv);
  }
  if (std::strcmp(cmd, "calibrate") == 0) return perfbench::CalibrateMain();
  std::fprintf(stderr, "usage: %s gen|job|trace|calibrate [--flag=value ...]\n",
               argv[0]);
  return 2;
}
