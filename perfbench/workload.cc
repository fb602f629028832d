#include "workload.h"

#include <set>

#include "common.h"
#include "constraints/parser.h"
#include "datagen/constraint_gen.h"
#include "relational/csv.h"
#include "util/string_util.h"

namespace perfbench {

using cextend::CardinalityConstraint;
using cextend::CompareOp;
using cextend::DenialConstraint;
using cextend::Value;
namespace datagen = cextend::datagen;

/// Seed of the census population and CC family behind every workload. It is
/// fixed, as the paper uses one census extract per scale. The solver's
/// greedy stages depend on the exact instance: over six row orders of the
/// census-good-1x population, new_r2_tuples ranged from 271 to 956, and the
/// FK groups, and so the brute-force DC check's cost, change with it.
constexpr uint64_t kPopulationSeed = 42;
/// |S_CC| drawn from the S_good_CC / S_bad_CC families.
constexpr size_t kNumFamilyCcs = 900;

StatusOr<Workload> FindWorkload(const std::string& name) {
  static const Workload kWorkloads[] = {
      // Paper 1x headline cell: classification, Hasse recursion and the
      // final fill do the solve; ILP, repair and durable sink stay idle.
      {"census-good-1x", 1.0, CcFamily::kGood, 1, false},
      // Paper 4x with intersecting CCs, 2 threads, durable streaming:
      // superlinear coloring, the ILP, fsync'd commits and DC checking.
      {"census-bad-4x-durable", 4.0, CcFamily::kBad, 2, true},
      // Every Area value constrained on housemates: no CC-free combo, so
      // the final fill leaves rows invalid and repair runs.
      {"repair-housemate-1x", 1.0, CcFamily::kHousemate, 1, false},
  };
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return w;
  }
  return Status::NotFound("unknown workload: " + name);
}

StatusOr<GeneratedInputs> GenerateInputs(const Workload& workload) {
  datagen::CensusOptions census = datagen::ScaledCensusOptions(workload.scale);
  census.seed = kPopulationSeed;
  CEXTEND_ASSIGN_OR_RETURN(datagen::CensusData data,
                           datagen::GenerateCensus(census));
  std::vector<CardinalityConstraint> ccs;
  if (workload.ccs == CcFamily::kHousemate) {
    size_t area_col = data.housing.schema().IndexOrDie("Area");
    std::set<std::string> areas;
    for (size_t r = 0; r < data.housing.NumRows(); ++r) {
      areas.insert(data.housing.GetValue(r, area_col).AsString());
    }
    for (const std::string& area : areas) {
      CardinalityConstraint cc;
      cc.name = "housemate_" + area;
      cc.r1_condition.Eq("Rel", datagen::kHousemate);
      cc.r2_condition.Eq("Area", area);
      cc.target = 1;
      ccs.push_back(std::move(cc));
    }
  } else {
    datagen::CcFamilyOptions options;
    options.num_ccs = kNumFamilyCcs;
    options.intersecting = workload.ccs == CcFamily::kBad;
    options.seed = kPopulationSeed * 17 + 3;
    CEXTEND_ASSIGN_OR_RETURN(ccs, datagen::GenerateCcs(data, options));
  }
  return GeneratedInputs{std::move(data), std::move(ccs),
                         datagen::MakeCensusDcs(/*good_only=*/false)};
}

namespace {

StatusOr<std::string> FormatValue(const Value& v) {
  if (v.is_int()) return std::to_string(v.AsInt());
  if (!v.is_string()) return Status::InvalidArgument("NULL constant");
  const std::string& s = v.AsString();
  if (s.find('"') == std::string::npos) return "\"" + s + "\"";
  if (s.find('\'') == std::string::npos) return "'" + s + "'";
  return Status::InvalidArgument("constant has both quote kinds: " + s);
}

StatusOr<std::string> FormatRhs(CompareOp op, const Value& value,
                                const std::vector<Value>& values) {
  if (op != CompareOp::kIn) {
    CEXTEND_ASSIGN_OR_RETURN(std::string v, FormatValue(value));
    return std::string(cextend::CompareOpToString(op)) + " " + v;
  }
  std::string out = "IN {";
  for (size_t i = 0; i < values.size(); ++i) {
    CEXTEND_ASSIGN_OR_RETURN(std::string v, FormatValue(values[i]));
    out += (i > 0 ? ", " : "") + v;
  }
  return out + "}";
}

/// A constraint name the spec syntax can carry ("<kind> <name>: ...").
Status CheckName(const std::string& name) {
  if (name.empty() ||
      name.find_first_of(": \t\r\n#") != std::string::npos) {
    return Status::InvalidArgument("constraint name not writable: '" + name +
                                   "'");
  }
  return Status::Ok();
}

StatusOr<std::string> FormatCc(const CardinalityConstraint& cc) {
  CEXTEND_RETURN_IF_ERROR(CheckName(cc.name));
  std::vector<std::string> atoms;
  for (const auto* side : {&cc.r1_condition, &cc.r2_condition}) {
    for (const cextend::Atom& a : side->atoms()) {
      CEXTEND_ASSIGN_OR_RETURN(std::string rhs,
                               FormatRhs(a.op, a.value, a.values));
      atoms.push_back(a.column + " " + rhs);
    }
  }
  if (atoms.empty()) return Status::InvalidArgument("CC with no atoms");
  return "cc " + cc.name + ": COUNT(" + cextend::StrJoin(atoms, " & ") +
         ") = " + std::to_string(cc.target);
}

StatusOr<std::string> FormatDc(const DenialConstraint& dc) {
  CEXTEND_RETURN_IF_ERROR(CheckName(dc.name()));
  std::vector<std::string> atoms;
  for (const cextend::DcAtom& a : dc.atoms()) {
    std::string lhs = cextend::StrFormat("t%d.", a.lhs_tuple) + a.lhs_column;
    if (!a.is_binary) {
      CEXTEND_ASSIGN_OR_RETURN(std::string rhs,
                               FormatRhs(a.op, a.rhs_value, a.rhs_values));
      atoms.push_back(lhs + " " + rhs);
      continue;
    }
    std::string atom = lhs + " " + cextend::CompareOpToString(a.op) +
                       cextend::StrFormat(" t%d.", a.rhs_tuple) + a.rhs_column;
    if (a.offset > 0) atom += " + " + std::to_string(a.offset);
    // Negated as unsigned so INT64_MIN cannot overflow.
    if (a.offset < 0) {
      atom += " - " + std::to_string(-static_cast<uint64_t>(a.offset));
    }
    atoms.push_back(atom);
  }
  return "dc " + dc.name() + ": !(" + cextend::StrJoin(atoms, " & ") + ")";
}

Status CheckTableRoundTrip(const Table& expected, const std::string& path) {
  CEXTEND_ASSIGN_OR_RETURN(Table got,
                           cextend::ReadCsv(path, expected.schema()));
  if (got.NumRows() != expected.NumRows()) {
    return Status::Internal(path + ": row count differs after round trip");
  }
  for (size_t c = 0; c < expected.NumColumns(); ++c) {
    for (size_t r = 0; r < expected.NumRows(); ++r) {
      if (!(got.GetValue(r, c) == expected.GetValue(r, c))) {
        return Status::Internal(cextend::StrFormat(
            "%s: cell (%zu, %zu) differs after round trip", path.c_str(), r,
            c));
      }
    }
  }
  return Status::Ok();
}

}  // namespace

Status WriteInputs(const GeneratedInputs& inputs, const std::string& dir) {
  CEXTEND_RETURN_IF_ERROR(
      cextend::WriteCsv(inputs.data.persons, dir + "/persons.csv"));
  CEXTEND_RETURN_IF_ERROR(
      cextend::WriteCsv(inputs.data.housing, dir + "/housing.csv"));
  std::string spec;
  for (const CardinalityConstraint& cc : inputs.ccs) {
    CEXTEND_ASSIGN_OR_RETURN(std::string line, FormatCc(cc));
    spec += line + "\n";
  }
  for (const DenialConstraint& dc : inputs.dcs) {
    CEXTEND_ASSIGN_OR_RETURN(std::string line, FormatDc(dc));
    spec += line + "\n";
  }
  std::FILE* f = std::fopen((dir + "/constraints.txt").c_str(), "wb");
  if (f == nullptr) return Status::Internal("cannot write constraints.txt");
  bool ok = std::fwrite(spec.data(), 1, spec.size(), f) == spec.size();
  ok = std::fclose(f) == 0 && ok;
  return ok ? Status::Ok() : Status::Internal("short write: constraints.txt");
}

Status CheckRoundTrip(const GeneratedInputs& inputs, const std::string& dir) {
  const Table& persons = inputs.data.persons;
  const Table& housing = inputs.data.housing;
  CEXTEND_RETURN_IF_ERROR(CheckTableRoundTrip(persons, dir + "/persons.csv"));
  CEXTEND_RETURN_IF_ERROR(CheckTableRoundTrip(housing, dir + "/housing.csv"));
  CEXTEND_ASSIGN_OR_RETURN(std::string text,
                           ReadFile(dir + "/constraints.txt"));
  CEXTEND_ASSIGN_OR_RETURN(
      ConstraintSpec spec, ParseSpecForPair(text, persons.schema(),
                                            housing.schema(),
                                            inputs.data.names));
  if (spec.ccs.size() != inputs.ccs.size() ||
      spec.dcs.size() != inputs.dcs.size()) {
    return Status::Internal("constraint count differs after round trip");
  }
  for (size_t i = 0; i < spec.ccs.size(); ++i) {
    const CardinalityConstraint& a = inputs.ccs[i];
    const CardinalityConstraint& b = spec.ccs[i];
    if (a.name != b.name || a.target != b.target ||
        a.r1_condition.ToString() != b.r1_condition.ToString() ||
        a.r2_condition.ToString() != b.r2_condition.ToString()) {
      return Status::Internal("CC differs after round trip: " + a.ToString() +
                              " vs " + b.ToString());
    }
  }
  for (size_t i = 0; i < spec.dcs.size(); ++i) {
    const DenialConstraint& a = inputs.dcs[i];
    const DenialConstraint& b = spec.dcs[i];
    if (a.name() != b.name() || a.arity() != b.arity() ||
        a.ToString() != b.ToString()) {
      return Status::Internal("DC differs after round trip: " + a.ToString() +
                              " vs " + b.ToString());
    }
  }
  return Status::Ok();
}

}  // namespace perfbench
