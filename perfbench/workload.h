// The benchmark's workloads and their input writer. A workload fixes the
// census scale, the CC family and the job flags; the census population is
// the same for every seed (see kPopulationSeed in workload.cc), and the
// seed is the job's solver seed.
// Why each workload exists is recorded in BENCHMARK.json and README.md.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "constraints/cardinality_constraint.h"
#include "constraints/denial_constraint.h"
#include "datagen/census.h"
#include "util/statusor.h"

namespace perfbench {

enum class CcFamily {
  kGood,       ///< 900 of S_good_CC (containment chains; Hasse path)
  kBad,        ///< 900 of S_bad_CC (intersecting Age intervals; ILP path)
  kHousemate,  ///< one CC per Area value on housemates (repair path)
};

struct Workload {
  std::string name;
  double scale = 1.0;  ///< paper Table-1 scale factor
  CcFamily ccs = CcFamily::kGood;
  size_t threads = 1;
  bool stream = false;  ///< durable --stream-out + --manifest
};

/// The named workload, or kNotFound.
cextend::StatusOr<Workload> FindWorkload(const std::string& name);

struct GeneratedInputs {
  cextend::datagen::CensusData data;
  std::vector<cextend::CardinalityConstraint> ccs;
  std::vector<cextend::DenialConstraint> dcs;  ///< S_all_DC
};

/// Generates the workload's census tables and constraints. Deterministic.
cextend::StatusOr<GeneratedInputs> GenerateInputs(const Workload& workload);

/// Writes persons.csv, housing.csv and constraints.txt (the
/// ParseConstraintSpec syntax) into `dir`.
cextend::Status WriteInputs(const GeneratedInputs& inputs,
                            const std::string& dir);

/// Reads the files back and checks that they reproduce `inputs`: every
/// table cell, and every CC's name, predicates and target and every DC's
/// name, arity and atoms.
cextend::Status CheckRoundTrip(const GeneratedInputs& inputs,
                               const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
