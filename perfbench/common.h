// Pieces shared by the benchmark's job, traced-job and input-generator
// subcommands: the cextend_cli-style job flags, input loading, the output
// checks run after every job, and a flat JSON line writer for results.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "constraints/metrics.h"
#include "constraints/parser.h"
#include "core/join_view.h"
#include "core/solver.h"
#include "core/stream_checkpoint.h"
#include "relational/schema.h"
#include "relational/table.h"
#include "util/statusor.h"

namespace perfbench {

using cextend::ConstraintSpec;
using cextend::PairSchema;
using cextend::Schema;
using cextend::Status;
using cextend::StatusOr;
using cextend::Table;

/// Seconds on the monotonic clock since an arbitrary epoch.
inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Job flags, named as cextend_cli names them. `stream` is the CLI's
/// `--stream-out=<out_dir>/stream.txt --manifest=<out_dir>/stream.manifest`.
struct JobArgs {
  std::string r1_path, r1_schema;
  std::string r2_path, r2_schema;
  std::string key1, fk, key2;
  std::string constraints_path;
  std::string out_dir;
  uint64_t seed = 1;
  size_t threads = 1;
  bool stream = false;
  std::string trace_out;  ///< traced job only: Chrome trace-event JSON path

  std::string out_r1() const { return out_dir + "/r1_hat.csv"; }
  std::string out_r2() const { return out_dir + "/r2_hat.csv"; }
  std::string stream_path() const { return out_dir + "/stream.txt"; }
  std::string manifest_path() const { return out_dir + "/stream.manifest"; }
};

/// Parses `--name=value` flags from argv[first..argc).
StatusOr<JobArgs> ParseJobArgs(int argc, char** argv, int first);

/// "pid:int,Age:int,Rel:str" -> Schema (the CLI's --r1-schema syntax).
StatusOr<Schema> ParseSchemaSpec(const std::string& spec);
/// The inverse of ParseSchemaSpec.
std::string SchemaSpec(const Schema& schema);

StatusOr<std::string> ReadFile(const std::string& path);

/// ParseConstraintSpec against the attribute schemas of the linked pair,
/// as the CLI does (key and FK columns cannot be constrained).
StatusOr<ConstraintSpec> ParseSpecForPair(const std::string& text,
                                          const Schema& r1_schema,
                                          const Schema& r2_schema,
                                          const PairSchema& names);

/// The CLI's first-attempt solver options for these flags.
cextend::SolverOptions JobSolverOptions(const JobArgs& args);
cextend::DurableStreamSpec JobStreamSpec(const JobArgs& args);

/// Peak resident set size of this process so far, in MiB.
double MaxRssMb();

/// 64-bit FNV-1a over the concatenated bytes of `paths`.
StatusOr<uint64_t> FilesDigest(const std::vector<std::string>& paths);
std::string Hex64(uint64_t v);

/// Checks run on every job's output, outside the timed job: join identity
/// (Prop. 5.5), the digest of the written CSVs, and for streamed jobs the
/// stream-vs-tables agreement.
struct OutputCheck {
  size_t join_mismatches = 0;
  double join_check_s = 0.0;  ///< time in CountJoinMismatches
  uint64_t digest = 0;
  std::string stream_error;  ///< empty when consistent or not streamed
};
StatusOr<OutputCheck> CheckOutputs(const JobArgs& args,
                                   const cextend::Solution& solution,
                                   size_t r2_input_rows,
                                   const PairSchema& names);

/// One flat JSON object, printed as a single line.
class JsonLine {
 public:
  JsonLine& Add(const std::string& key, double value);
  JsonLine& Add(const std::string& key, uint64_t value);
  JsonLine& Add(const std::string& key, const std::string& value);
  JsonLine& Add(const std::string& key, const char* value) {
    return Add(key, std::string(value));
  }
  JsonLine& Add(const std::string& key, bool value);
  JsonLine& AddRaw(const std::string& key, const std::string& json);
  std::string str() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

std::string JsonQuote(const std::string& s);

/// Adds the job's output quality and check results to `out`: cc_err_mean,
/// cc_exact_frac, new_r2_tuples, dc_violations, join_mismatches, digest,
/// stream_error.
void AddOutputFields(const cextend::CcErrorReport& cc_report, size_t num_ccs,
                     const cextend::DcErrorReport& dc_report,
                     size_t new_r2_tuples, const OutputCheck& check,
                     JsonLine& out);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
