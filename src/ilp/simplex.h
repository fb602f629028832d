// LP relaxation solving:  min c^T x  s.t.  A x {<=,=,>=} b,  0 <= x <= u.
//
// SolveLp runs the sparse bounded-variable revised simplex (see
// revised_simplex.h): Dantzig pricing with an automatic switch to Bland's
// rule after a run of degenerate pivots to guarantee termination. The dense
// two-phase tableau it replaced lives on as a test/bench reference
// (tests/reference/dense_simplex.h), not in the library.

#ifndef CEXTEND_ILP_SIMPLEX_H_
#define CEXTEND_ILP_SIMPLEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ilp/model.h"
#include "util/deadline.h"

namespace cextend {
namespace ilp {

enum class LpStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

const char* LpStatusToString(LpStatus s);

struct LpResult {
  LpStatus status = LpStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> values;      ///< primal values, one per model variable
  int64_t iterations = 0;
  /// Non-OK when the solve stopped because the RunControl tripped (deadline
  /// expired / cancelled). `status` is kIterationLimit in that case; callers
  /// that care about the distinction check this first.
  Status interrupt;
};

struct SimplexOptions {
  int64_t max_iterations = 200000;
  double eps = 1e-9;
  /// Consecutive degenerate pivots before switching to Bland's rule.
  int degenerate_switch = 64;
  /// Pivots between eta-file refactorizations.
  int refactor_interval = 64;
  /// Deadline/cancellation, polled every few hundred pivots and at every
  /// basis reinversion. A trip surfaces as kIterationLimit with
  /// LpResult::interrupt set.
  RunControl run_control;
};

/// Solves the LP relaxation of `model` (integrality ignored). Additional
/// variable bounds can be supplied to support branch & bound: `extra_lower`
/// and `extra_upper` (empty = none; otherwise one entry per variable, with
/// kInfinity/-kInfinity meaning unbounded).
LpResult SolveLp(const Model& model, const SimplexOptions& options = {},
                 const std::vector<double>& extra_lower = {},
                 const std::vector<double>& extra_upper = {});

}  // namespace ilp
}  // namespace cextend

#endif  // CEXTEND_ILP_SIMPLEX_H_
