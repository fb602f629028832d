// Error measures from Section 6.1 of the paper:
//   * relative CC error:   err_i = |ĉ_i − c_i| / max(10, c_i)
//   * DC error:            fraction of R1 tuples participating in at least
//                          one violated DC instance
// plus the join-consistency check of Proposition 5.5.

#ifndef CEXTEND_CONSTRAINTS_METRICS_H_
#define CEXTEND_CONSTRAINTS_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "constraints/cardinality_constraint.h"
#include "constraints/denial_constraint.h"
#include "relational/table.h"
#include "util/statusor.h"

namespace cextend {

/// Per-CC and aggregate relative errors.
struct CcErrorReport {
  std::vector<double> per_cc;
  double median = 0.0;
  double mean = 0.0;
  double max = 0.0;
  size_t num_exact = 0;  ///< CCs satisfied with zero error

  std::string Summary() const;
};

/// Evaluates every CC against the (completed) join view.
///
/// Cost: per column that some CC tests with `=`, the n join-view rows are
/// sorted by code once, in O(n log n) and 4 bytes per non-NULL cell, so the
/// rows holding one code (its posting list) are found in O(log n). Each CC
/// with `=` atoms then evaluates its predicate only on the shortest of those
/// atoms' posting lists; a CC with no `=` atom scans all n rows.
StatusOr<CcErrorReport> EvaluateCcError(
    const std::vector<CardinalityConstraint>& ccs, const Table& v_join);

/// DC violation details.
struct DcErrorReport {
  size_t num_tuples = 0;
  size_t num_violating_tuples = 0;  ///< tuples in ≥1 violated DC instance
  size_t num_violations = 0;        ///< violated (DC, tuple-set) instances
  double error = 0.0;               ///< num_violating_tuples / num_tuples

  std::string Summary() const;
};

/// Evaluates all DCs on `r1` whose FK column `fk_column` has been filled in.
/// Tuples sharing an FK value form a group, and a DC instance is violated
/// when some ordering of an arity-sized set of distinct group rows satisfies
/// the DC body; each such (DC, row set) counts once. NULL FK cells never
/// violate. Fails on a DC of arity < 1.
///
/// Cost: after an O(n log n) sort of the rows by FK, each DC visits each
/// group of g rows in O(g) to build one candidate list per tuple variable
/// (the rows passing its unary and single-variable atoms). It then
/// enumerates only ordered tuples of distinct candidates, so per group the
/// work is the product of the side-list sizes, not g^arity. Each census DC
/// has one side limited to the owner or to spouses and partners, of which a
/// household holds few, so on census output the check is close to linear in
/// the group size. Cross atoms (`t0.Cls = t1.Cls`) only filter enumerated
/// tuples; they do not shrink the product.
StatusOr<DcErrorReport> EvaluateDcError(
    const std::vector<DenialConstraint>& dcs, const Table& r1,
    const std::string& fk_column);

/// Checks that r1 ⋈_{FK=K2} r2 reproduces `v_join` row-for-row on the B
/// columns (Proposition 5.5). `r1` rows and `v_join` rows correspond by
/// position. Returns the number of mismatching rows.
StatusOr<size_t> CountJoinMismatches(const Table& r1,
                                     const std::string& fk_column,
                                     const Table& r2,
                                     const std::string& k2_column,
                                     const Table& v_join,
                                     const std::vector<std::string>& b_columns);

}  // namespace cextend

#endif  // CEXTEND_CONSTRAINTS_METRICS_H_
