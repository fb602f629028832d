#include "ilp/simplex.h"

#include "ilp/revised_simplex.h"

namespace cextend {
namespace ilp {

const char* LpStatusToString(LpStatus s) {
  switch (s) {
    case LpStatus::kOptimal:
      return "OPTIMAL";
    case LpStatus::kInfeasible:
      return "INFEASIBLE";
    case LpStatus::kUnbounded:
      return "UNBOUNDED";
    case LpStatus::kIterationLimit:
      return "ITERATION_LIMIT";
  }
  return "?";
}

LpResult SolveLp(const Model& model, const SimplexOptions& options,
                 const std::vector<double>& extra_lower,
                 const std::vector<double>& extra_upper) {
  RevisedSimplex solver(model, options);
  return solver.Solve(extra_lower, extra_upper);
}

}  // namespace ilp
}  // namespace cextend
