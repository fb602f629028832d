// Randomized property tests pitting the library's sparse revised simplex
// against the dense two-phase tableau reference (reference/dense_simplex.h),
// on LPs and on full branch & bound: statuses must agree, optimal objectives
// must match, and every returned point must be feasible for its model. Also
// exercises the warm-start path directly (parent basis + tightened bounds ->
// dual simplex must reach the same optimum as a cold solve), and whole B&B
// runs with every warm start forced cold through the dual.warm_start fault
// point.

#include <cmath>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "ilp/branch_and_bound.h"
#include "ilp/revised_simplex.h"
#include "ilp/simplex.h"
#include "reference/dense_simplex.h"
#include "util/fault_injection.h"
#include "util/rng.h"

namespace cextend {
namespace ilp {
namespace {

/// A random model with mixed senses, small integer data, and occasional
/// finite upper bounds. Feasibility is not guaranteed — status agreement is
/// part of the property.
Model RandomModel(Rng& rng, bool integer_vars) {
  size_t n = 3 + static_cast<size_t>(rng.UniformInt(0, 7));
  size_t m = 2 + static_cast<size_t>(rng.UniformInt(0, 5));
  Model model;
  for (size_t j = 0; j < n; ++j) {
    double upper = rng.Bernoulli(0.4)
                       ? static_cast<double>(rng.UniformInt(1, 8))
                       : kInfinity;
    model.AddVariable(static_cast<double>(rng.UniformInt(-3, 3)),
                      integer_vars && rng.Bernoulli(0.7), upper);
  }
  for (size_t i = 0; i < m; ++i) {
    std::vector<LinearTerm> terms;
    for (size_t j = 0; j < n; ++j) {
      if (rng.Bernoulli(0.45)) {
        terms.push_back({static_cast<int>(j),
                         static_cast<double>(rng.UniformInt(-3, 3))});
      }
    }
    if (terms.empty()) continue;
    Sense sense = rng.Bernoulli(0.4)   ? Sense::kLe
                  : rng.Bernoulli(0.5) ? Sense::kGe
                                       : Sense::kEq;
    // Small right-hand sides keep a healthy mix of feasible and infeasible
    // instances without numerically nasty bases.
    model.AddConstraint(std::move(terms), sense,
                        static_cast<double>(rng.UniformInt(-6, 10)));
  }
  return model;
}

/// Lp-level feasibility: bounds and constraints within tol (objective
/// optimality is checked by comparing against the reference solver).
bool LpFeasible(const Model& model, const std::vector<double>& x, double tol) {
  if (x.size() != model.num_variables()) return false;
  for (size_t j = 0; j < x.size(); ++j) {
    if (x[j] < -tol || x[j] > model.variable(j).upper + tol) return false;
  }
  for (const LinearConstraint& c : model.constraints()) {
    double lhs = 0.0;
    for (const LinearTerm& t : c.terms)
      lhs += t.coeff * x[static_cast<size_t>(t.var)];
    switch (c.sense) {
      case Sense::kLe:
        if (lhs > c.rhs + tol) return false;
        break;
      case Sense::kGe:
        if (lhs < c.rhs - tol) return false;
        break;
      case Sense::kEq:
        if (std::fabs(lhs - c.rhs) > tol) return false;
        break;
    }
  }
  return true;
}

class SparseVsDenseLpTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SparseVsDenseLpTest, AgreeOnRandomLps) {
  Rng rng(GetParam());
  for (int round = 0; round < 8; ++round) {
    Model model = RandomModel(rng, /*integer_vars=*/false);
    LpResult dense = SolveLpDense(model);
    LpResult sparse = SolveLp(model);
    // The dense tableau can in principle hit its iteration cap first; none
    // of these tiny instances do, so statuses must agree outright.
    ASSERT_EQ(sparse.status, dense.status)
        << "round " << round << "\n" << model.ToString();
    if (dense.status != LpStatus::kOptimal) continue;
    EXPECT_NEAR(sparse.objective, dense.objective, 1e-6)
        << "round " << round << "\n" << model.ToString();
    EXPECT_TRUE(LpFeasible(model, sparse.values, 1e-6))
        << "round " << round << "\n" << model.ToString();
  }
}

TEST_P(SparseVsDenseLpTest, AgreeUnderBranchBounds) {
  // Extra per-variable bound overrides (the branch & bound interface).
  Rng rng(GetParam() * 131 + 17);
  for (int round = 0; round < 8; ++round) {
    Model model = RandomModel(rng, /*integer_vars=*/false);
    size_t n = model.num_variables();
    std::vector<double> lower(n, 0.0), upper(n, kInfinity);
    for (size_t j = 0; j < n; ++j) {
      if (rng.Bernoulli(0.5)) lower[j] = static_cast<double>(rng.UniformInt(0, 3));
      if (rng.Bernoulli(0.5)) upper[j] = static_cast<double>(rng.UniformInt(2, 9));
    }
    LpResult dense = SolveLpDense(model, {}, lower, upper);
    LpResult sparse = SolveLp(model, {}, lower, upper);
    ASSERT_EQ(sparse.status, dense.status) << model.ToString();
    if (dense.status != LpStatus::kOptimal) continue;
    EXPECT_NEAR(sparse.objective, dense.objective, 1e-6) << model.ToString();
  }
}

class SparseVsDenseIlpTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SparseVsDenseIlpTest, AgreeOnRandomIlps) {
  Rng rng(GetParam() * 977 + 3);
  for (int round = 0; round < 4; ++round) {
    Model model = RandomModel(rng, /*integer_vars=*/true);
    IlpResult dense = SolveIlpDense(model);
    IlpResult warm = SolveIlp(model);
    // The cold leg: the fault point sends every child node down the
    // warm→cold rung, so each node is re-solved from scratch.
    std::optional<IlpResult> cold;
    if (FaultInjection::CompiledIn()) {
      ScopedFaults faults("dual.warm_start");
      cold = SolveIlp(model);
      EXPECT_EQ(cold->warm_solves, 0) << model.ToString();
    }
    // Proven-optimal instances must agree on the optimal value across all
    // three solvers (the argmax may differ).
    if (dense.status == IlpStatus::kOptimal) {
      ASSERT_EQ(warm.status, IlpStatus::kOptimal) << model.ToString();
      EXPECT_NEAR(warm.objective, dense.objective, 1e-6) << model.ToString();
      EXPECT_TRUE(IsFeasible(model, warm.values, 1e-5)) << model.ToString();
      if (cold.has_value()) {
        ASSERT_EQ(cold->status, IlpStatus::kOptimal) << model.ToString();
        EXPECT_NEAR(cold->objective, dense.objective, 1e-6)
            << model.ToString();
        EXPECT_TRUE(IsFeasible(model, cold->values, 1e-5))
            << model.ToString();
      }
    } else if (dense.status == IlpStatus::kInfeasible) {
      EXPECT_EQ(warm.status, IlpStatus::kInfeasible) << model.ToString();
    }
  }
}

TEST_P(SparseVsDenseIlpTest, CountingSystemsSolveToZeroSlack) {
  // Phase-1-shaped models: 0/1 equality systems with a known integer
  // witness plus u/v slack columns; the optimum is zero slack and both
  // solvers must find it.
  Rng rng(GetParam() * 31 + 11);
  size_t n = 5 + static_cast<size_t>(rng.UniformInt(0, 6));
  size_t rows = 3 + static_cast<size_t>(rng.UniformInt(0, 3));
  Model model;
  std::vector<int64_t> witness(n);
  for (size_t j = 0; j < n; ++j) {
    model.AddVariable(0.0, true);
    witness[j] = rng.UniformInt(0, 4);
  }
  for (size_t i = 0; i < rows; ++i) {
    std::vector<LinearTerm> terms;
    double rhs = 0.0;
    for (size_t j = 0; j < n; ++j) {
      if (rng.Bernoulli(0.5)) {
        terms.push_back({static_cast<int>(j), 1.0});
        rhs += static_cast<double>(witness[j]);
      }
    }
    int u = model.AddVariable(1.0, false);
    int v = model.AddVariable(1.0, false);
    terms.push_back({u, 1.0});
    terms.push_back({v, -1.0});
    model.AddConstraint(std::move(terms), Sense::kEq, rhs);
  }
  IlpOptions options;
  options.objective_target = 0.0;
  IlpResult sparse = SolveIlp(model, options);
  IlpResult dense = SolveIlpDense(model, options);
  ASSERT_EQ(sparse.status, IlpStatus::kOptimal);
  ASSERT_EQ(dense.status, IlpStatus::kOptimal);
  EXPECT_NEAR(sparse.objective, 0.0, 1e-6);
  EXPECT_NEAR(dense.objective, 0.0, 1e-6);
}

TEST(WarmStartTest, DualSimplexMatchesColdAfterBoundTightening) {
  // Solve, then tighten one variable's bounds around a fractional value the
  // way branching does; the warm solve from the parent basis must match a
  // cold solve exactly (status and objective).
  Rng rng(12345);
  int checked = 0;
  for (uint64_t seed = 1; seed < 40 && checked < 12; ++seed) {
    Rng local(seed);
    Model model = RandomModel(local, /*integer_vars=*/false);
    SimplexOptions options;
    RevisedSimplex solver(model, options);
    LpResult root = solver.Solve();
    if (root.status != LpStatus::kOptimal) continue;
    SimplexBasis basis = solver.basis();
    ASSERT_TRUE(basis.valid);
    size_t n = model.num_variables();
    size_t j = static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(n) - 1));
    double v = root.values[j];
    std::vector<double> lower(n, 0.0), upper(n, kInfinity);
    // Both branching directions.
    for (bool down : {true, false}) {
      std::vector<double> lo = lower, up = upper;
      if (down) {
        up[j] = std::floor(v);
      } else {
        lo[j] = std::floor(v) + 1.0;
      }
      std::optional<LpResult> warm = solver.SolveWarm(basis, lo, up);
      RevisedSimplex fresh(model, options);
      LpResult cold = fresh.Solve(lo, up);
      ASSERT_TRUE(warm.has_value()) << model.ToString();
      ASSERT_EQ(warm->status, cold.status) << model.ToString();
      if (cold.status == LpStatus::kOptimal) {
        EXPECT_NEAR(warm->objective, cold.objective, 1e-6) << model.ToString();
        EXPECT_TRUE(LpFeasible(model, warm->values, 1e-6));
        ++checked;
      }
    }
  }
  EXPECT_GE(checked, 6) << "too few optimal instances exercised";
}

TEST(WarmStartTest, EqualityOnlyModelsMatchColdAfterTightening) {
  // Phase-1 models are all-equality, so every logical column is fixed at
  // [0, 0] and the dual ratio test sees only structural entering
  // candidates (fixed columns are excluded: their values are forced
  // constants, so the no-candidate infeasibility certificate holds without
  // them — see DualIterate — while *including* them lets pivots shuffle
  // the violation onto a fixed column forever). Sweep eq-only systems
  // through branching-style tightenings and demand warm == cold on both
  // status and objective.
  for (uint64_t seed = 1; seed < 60; ++seed) {
    Rng rng(seed * 7919 + 1);
    size_t n = 4 + static_cast<size_t>(rng.UniformInt(0, 5));
    size_t m = 2 + static_cast<size_t>(rng.UniformInt(0, 3));
    Model model;
    for (size_t j = 0; j < n; ++j)
      model.AddVariable(static_cast<double>(rng.UniformInt(-2, 2)), false);
    for (size_t i = 0; i < m; ++i) {
      std::vector<LinearTerm> terms;
      for (size_t j = 0; j < n; ++j) {
        if (rng.Bernoulli(0.5)) {
          terms.push_back({static_cast<int>(j),
                           static_cast<double>(rng.UniformInt(-2, 2))});
        }
      }
      if (terms.empty()) continue;
      model.AddConstraint(std::move(terms), Sense::kEq,
                          static_cast<double>(rng.UniformInt(0, 8)));
    }
    SimplexOptions options;
    RevisedSimplex solver(model, options);
    LpResult root = solver.Solve();
    if (root.status != LpStatus::kOptimal) continue;
    SimplexBasis basis = solver.basis();
    for (size_t j = 0; j < n; ++j) {
      std::vector<double> lo(n, 0.0), up(n, kInfinity);
      up[j] = std::floor(root.values[j]);  // force the variable down
      std::optional<LpResult> warm = solver.SolveWarm(basis, lo, up);
      RevisedSimplex fresh(model, options);
      LpResult cold = fresh.Solve(lo, up);
      ASSERT_TRUE(warm.has_value()) << "seed " << seed << "\n" << model.ToString();
      ASSERT_EQ(warm->status, cold.status)
          << "seed " << seed << " var " << j << "\n" << model.ToString();
      if (cold.status == LpStatus::kOptimal) {
        EXPECT_NEAR(warm->objective, cold.objective, 1e-6)
            << "seed " << seed << " var " << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseVsDenseLpTest,
                         ::testing::Range<uint64_t>(1, 16));
INSTANTIATE_TEST_SUITE_P(Seeds, SparseVsDenseIlpTest,
                         ::testing::Range<uint64_t>(1, 16));

}  // namespace
}  // namespace ilp
}  // namespace cextend
