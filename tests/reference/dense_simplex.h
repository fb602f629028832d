// Dense reference solvers for the LP/ILP layer, built as the
// `cextend_reference` target and linked only by tests and benchmarks.
//
// SolveLpDense is the original two-phase tableau: it stores the full O(m·n)
// tableau, compiles upper bounds into extra rows, and prices with Dantzig's
// rule plus a switch to Bland's rule after a run of degenerate pivots.
// SolveIlpDense is a best-first branch & bound that solves every node cold
// with SolveLpDense. Neither shares code with the library's RevisedSimplex,
// so they serve as independent oracles for SolveLp / SolveIlp
// (tests/ilp/sparse_vs_dense_test.cc) and as the `dense_seconds` baseline of
// bench/bench_ilp_kernels.cpp.

#ifndef CEXTEND_TESTS_REFERENCE_DENSE_SIMPLEX_H_
#define CEXTEND_TESTS_REFERENCE_DENSE_SIMPLEX_H_

#include <vector>

#include "ilp/branch_and_bound.h"
#include "ilp/model.h"
#include "ilp/simplex.h"

namespace cextend {
namespace ilp {

/// Same contract as SolveLp: integrality ignored, optional per-variable
/// bound overrides (empty = none).
LpResult SolveLpDense(const Model& model, const SimplexOptions& options = {},
                      const std::vector<double>& extra_lower = {},
                      const std::vector<double>& extra_upper = {});

/// Same contract as SolveIlp for `max_nodes`, `time_limit_seconds`,
/// `integrality_tol` and `objective_target`; `rounding_heuristic` and
/// `run_control` are ignored.
IlpResult SolveIlpDense(const Model& model, const IlpOptions& options = {});

}  // namespace ilp
}  // namespace cextend

#endif  // CEXTEND_TESTS_REFERENCE_DENSE_SIMPLEX_H_
