// The benchmark binary's subcommands; each prints one JSON line to stdout.

#ifndef PERFBENCH_JOB_H_
#define PERFBENCH_JOB_H_

namespace perfbench {

/// `perfbench job <flags>`: one untraced synthesis job (job.cc).
int JobMain(int argc, char** argv);

/// `perfbench trace <flags> --trace-out=PATH`: the same job run stage by
/// stage with spans and the program's own counters (traced_job.cc).
int TracedJobMain(int argc, char** argv);

/// `perfbench calibrate`: times a fixed workload that uses no library code
/// (calibrate.cc).
int CalibrateMain();

}  // namespace perfbench

#endif  // PERFBENCH_JOB_H_
