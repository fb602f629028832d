#include "common.h"

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/string_util.h"

namespace perfbench {

using cextend::ColumnSpec;
using cextend::DataType;

namespace {

uint64_t ParseCount(const std::string& value) {
  return std::strtoull(value.c_str(), nullptr, 10);
}

}  // namespace

StatusOr<JobArgs> ParseJobArgs(int argc, char** argv, int first) {
  JobArgs args;
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return Status::InvalidArgument("expected --name=value, got " + arg);
    }
    std::string key = arg.substr(2, eq - 2);
    std::string value = arg.substr(eq + 1);
    if (key == "r1") args.r1_path = value;
    else if (key == "r1-schema") args.r1_schema = value;
    else if (key == "r2") args.r2_path = value;
    else if (key == "r2-schema") args.r2_schema = value;
    else if (key == "key1") args.key1 = value;
    else if (key == "fk") args.fk = value;
    else if (key == "key2") args.key2 = value;
    else if (key == "constraints") args.constraints_path = value;
    else if (key == "out-dir") args.out_dir = value;
    else if (key == "seed") args.seed = ParseCount(value);
    else if (key == "threads") args.threads = ParseCount(value);
    else if (key == "stream") args.stream = value == "1";
    else if (key == "trace-out") args.trace_out = value;
    else return Status::InvalidArgument("unknown flag --" + key);
  }
  if (args.r1_path.empty() || args.r2_path.empty() || args.r1_schema.empty() ||
      args.r2_schema.empty() || args.key1.empty() || args.fk.empty() ||
      args.key2.empty() || args.constraints_path.empty() ||
      args.out_dir.empty() || args.threads == 0) {
    return Status::InvalidArgument("missing job flags");
  }
  return args;
}

StatusOr<Schema> ParseSchemaSpec(const std::string& spec) {
  std::vector<ColumnSpec> columns;
  for (const std::string& field : cextend::StrSplit(spec, ',')) {
    std::vector<std::string> parts = cextend::StrSplit(field, ':');
    if (parts.size() != 2 || (parts[1] != "int" && parts[1] != "str")) {
      return Status::InvalidArgument("bad schema field '" + field + "'");
    }
    columns.push_back(
        {parts[0], parts[1] == "int" ? DataType::kInt64 : DataType::kString});
  }
  return Schema::Create(std::move(columns));
}

std::string SchemaSpec(const Schema& schema) {
  std::string out;
  for (const ColumnSpec& c : schema.columns()) {
    if (!out.empty()) out += ",";
    out += c.name + (c.type == DataType::kInt64 ? ":int" : ":str");
  }
  return out;
}

StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

StatusOr<ConstraintSpec> ParseSpecForPair(const std::string& text,
                                          const Schema& r1_schema,
                                          const Schema& r2_schema,
                                          const PairSchema& names) {
  std::vector<ColumnSpec> r1_attr_cols, r2_attr_cols;
  for (const std::string& a : names.r1_attrs)
    r1_attr_cols.push_back({a, r1_schema.column(r1_schema.IndexOrDie(a)).type});
  for (const std::string& b : names.r2_attrs)
    r2_attr_cols.push_back({b, r2_schema.column(r2_schema.IndexOrDie(b)).type});
  return cextend::ParseConstraintSpec(text, Schema(r1_attr_cols),
                                      Schema(r2_attr_cols));
}

cextend::SolverOptions JobSolverOptions(const JobArgs& args) {
  cextend::SolverOptions options;
  options.seed = args.seed;
  options.phase2.num_threads = args.threads;
  return options;
}

cextend::DurableStreamSpec JobStreamSpec(const JobArgs& args) {
  cextend::DurableStreamSpec spec;
  spec.stream_path = args.stream_path();
  spec.manifest_path = args.manifest_path();
  return spec;
}

double MaxRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

StatusOr<uint64_t> FilesDigest(const std::vector<std::string>& paths) {
  uint64_t h = 1469598103934665603ULL;
  for (const std::string& path : paths) {
    CEXTEND_ASSIGN_OR_RETURN(std::string bytes, ReadFile(path));
    for (unsigned char c : bytes) {
      h ^= c;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

std::string Hex64(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

namespace {

/// Checks that a `cextend-stream v1` file carries exactly the FK
/// assignment of `r1_hat` and the fresh tuples appended to `r2_hat` past
/// its first `r2_input_rows` rows.
Status CheckStreamMatchesTables(const std::string& stream_path,
                                const Table& r1_hat, const Table& r2_hat,
                                size_t r2_input_rows,
                                const PairSchema& names) {
  CEXTEND_ASSIGN_OR_RETURN(std::string text, ReadFile(stream_path));
  std::vector<std::string> lines = cextend::StrSplit(text, '\n');
  if (!lines.empty() && lines.back().empty()) lines.pop_back();
  if (lines.size() < 2 || lines.front().rfind("cextend-stream v1 ", 0) != 0) {
    return Status::InvalidArgument("stream: missing cextend-stream v1 header");
  }
  size_t fk_col = r1_hat.schema().IndexOrDie(names.fk);
  size_t k2_col = r2_hat.schema().IndexOrDie(names.key2);
  std::vector<size_t> b_cols;
  for (const std::string& b : names.r2_attrs)
    b_cols.push_back(r2_hat.schema().IndexOrDie(b));

  std::vector<uint8_t> seen(r1_hat.NumRows(), 0);
  size_t rows = 0, tuples = 0;
  for (size_t i = 1; i + 1 < lines.size(); ++i) {
    std::vector<std::string> f = cextend::StrSplit(lines[i], ' ');
    std::vector<int64_t> v;
    for (size_t k = 1; k < f.size(); ++k) {
      std::optional<int64_t> x = cextend::ParseInt64(f[k]);
      if (!x) return Status::InvalidArgument("stream: bad number: " + lines[i]);
      v.push_back(*x);
    }
    if (f[0] == "r" && v.size() == 2) {
      if (v[0] < 0 || static_cast<size_t>(v[0]) >= r1_hat.NumRows() ||
          seen[static_cast<size_t>(v[0])]) {
        return Status::InvalidArgument("stream: bad or repeated row: " +
                                       lines[i]);
      }
      seen[static_cast<size_t>(v[0])] = 1;
      if (r1_hat.GetCode(static_cast<size_t>(v[0]), fk_col) != v[1]) {
        return Status::InvalidArgument("stream: FK differs from R1 hat: " +
                                       lines[i]);
      }
      ++rows;
    } else if (f[0] == "n" && v.size() == 1 + b_cols.size()) {
      size_t row = r2_input_rows + tuples;
      if (row >= r2_hat.NumRows() || r2_hat.GetCode(row, k2_col) != v[0]) {
        return Status::InvalidArgument("stream: new tuple differs: " +
                                       lines[i]);
      }
      for (size_t b = 0; b < b_cols.size(); ++b) {
        if (r2_hat.GetCode(row, b_cols[b]) != v[1 + b]) {
          return Status::InvalidArgument("stream: new tuple combo differs: " +
                                         lines[i]);
        }
      }
      ++tuples;
    } else {
      return Status::InvalidArgument("stream: bad record: " + lines[i]);
    }
  }
  std::string trailer =
      cextend::StrFormat("end rows=%zu new=%zu", rows, tuples);
  if (lines.back() != trailer) {
    return Status::InvalidArgument("stream: trailer '" + lines.back() +
                                   "', expected '" + trailer + "'");
  }
  if (rows != r1_hat.NumRows() || r2_input_rows + tuples != r2_hat.NumRows()) {
    return Status::InvalidArgument("stream: record counts differ from tables");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<OutputCheck> CheckOutputs(const JobArgs& args,
                                   const cextend::Solution& solution,
                                   size_t r2_input_rows,
                                   const PairSchema& names) {
  OutputCheck check;
  double start = NowSeconds();
  CEXTEND_ASSIGN_OR_RETURN(
      check.join_mismatches,
      cextend::CountJoinMismatches(solution.r1_hat, names.fk, solution.r2_hat,
                                   names.key2, solution.v_join,
                                   names.r2_attrs));
  check.join_check_s = NowSeconds() - start;
  CEXTEND_ASSIGN_OR_RETURN(check.digest,
                           FilesDigest({args.out_r1(), args.out_r2()}));
  if (args.stream) {
    Status st = CheckStreamMatchesTables(args.stream_path(), solution.r1_hat,
                                         solution.r2_hat, r2_input_rows, names);
    if (!st.ok()) check.stream_error = st.ToString();
  }
  return check;
}

void AddOutputFields(const cextend::CcErrorReport& cc_report, size_t num_ccs,
                     const cextend::DcErrorReport& dc_report,
                     size_t new_r2_tuples, const OutputCheck& check,
                     JsonLine& out) {
  double exact_frac = num_ccs == 0 ? 1.0
                                   : static_cast<double>(cc_report.num_exact) /
                                         static_cast<double>(num_ccs);
  out.Add("cc_err_mean", cc_report.mean)
      .Add("cc_exact_frac", exact_frac)
      .Add("new_r2_tuples", uint64_t{new_r2_tuples})
      .Add("dc_violations", uint64_t{dc_report.num_violations})
      .Add("join_mismatches", uint64_t{check.join_mismatches})
      .Add("digest", Hex64(check.digest))
      .Add("stream_error", check.stream_error);
}

std::string JsonQuote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += cextend::StrFormat("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

JsonLine& JsonLine::Add(const std::string& key, double value) {
  return AddRaw(key, cextend::StrFormat("%.17g", value));
}
JsonLine& JsonLine::Add(const std::string& key, uint64_t value) {
  return AddRaw(key, std::to_string(value));
}
JsonLine& JsonLine::Add(const std::string& key, const std::string& value) {
  return AddRaw(key, JsonQuote(value));
}
JsonLine& JsonLine::Add(const std::string& key, bool value) {
  return AddRaw(key, value ? "true" : "false");
}
JsonLine& JsonLine::AddRaw(const std::string& key, const std::string& json) {
  fields_.emplace_back(key, json);
  return *this;
}

std::string JsonLine::str() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonQuote(fields_[i].first) + ": " + fields_[i].second;
  }
  return out + "}";
}

}  // namespace perfbench
