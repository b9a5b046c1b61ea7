/// \file revised_simplex.h
/// Revised simplex on sparse columns — the LP engine of the branch & bound.
///
/// Differences from a textbook dense tableau (the test-only reference the
/// test suites check it against) that make it the scale engine for the ILP
/// path:
///
///   * Variable bounds are native. Binaries live in [0,1] (or [v,v] when
///     fixed) without materialized `x_i <= 1` rows, so the working basis has
///     one row per *constraint*, not per constraint-plus-variable.
///   * Columns stay sparse (CSC built once per `bind`); pricing is a sparse
///     dot against the pivot row of the explicit basis inverse.
///   * Every solve runs the *dual* simplex from a dual-feasible basis: the
///     all-slack basis with nonbasics placed by reduced-cost sign (cold), or
///     a caller-supplied parent basis (warm). Branching tightens bounds and
///     never disturbs dual feasibility, so branch & bound children re-solve
///     in a handful of pivots instead of from scratch.
///   * Bland's rule engages after tol::kDegenerateRunLimit degenerate
///     pivots; the inverse is refactorized every tol::kRefactorInterval
///     pivots (and on any warm start whose basis differs from the engine's
///     current one — the depth-first x=1 child hits the no-refactor
///     continuation fast path).
///
/// Because every variable is boxed, the relaxation is never unbounded: the
/// engine returns Optimal, Infeasible, IterationLimit, or TimeLimit.
#pragma once

#include <vector>

#include "ilp/lp_backend.h"
#include "ilp/model.h"

namespace cpr::ilp {

class RevisedSimplexBackend final : public LpBackend {
 public:
  [[nodiscard]] std::string_view name() const override { return "revised"; }
  void bind(const Model& m, const LpOptions& opts) override;
  [[nodiscard]] LpResult solve(const Fixing* fix, const LpBasis* warm,
                               LpBasis* basisOut,
                               support::Deadline deadline) override;

  /// Basis-inverse refactorizations performed since `bind` (periodic +
  /// warm-start rebuilds); exposed for the obs counters and benches.
  [[nodiscard]] long refactorizations() const { return refactorizations_; }

 private:
  // --- bound model, equality form: A x + I s = b, columns [structural|slack]
  std::size_t n_ = 0;  ///< structural columns
  std::size_t m_ = 0;  ///< rows == slack columns == basis size
  std::vector<std::size_t> colPtr_;  ///< CSC over structural columns only
  std::vector<std::int32_t> rowIdx_;
  std::vector<double> colVal_;
  std::vector<double> rhs_;
  std::vector<double> cost_;  ///< structural objective (slacks cost 0)
  std::vector<double> loBase_, hiBase_;  ///< bounds before per-solve fixing
  const Model* model_ = nullptr;
  LpOptions opts_;
  support::Deadline deadline_;  ///< the current solve's budget

  // --- engine state, preserved between solves for the continuation path
  enum class VarState : std::uint8_t { Basic, AtLower, AtUpper };
  std::vector<std::int32_t> basic_;   ///< column basic in each row
  std::vector<VarState> state_;       ///< per column
  std::vector<double> binv_;          ///< dense m x m inverse, row-major
  bool basisValid_ = false;
  long refactorizations_ = 0;

  // --- per-solve workspaces (members to amortize allocation across nodes)
  std::vector<double> lo_, hi_, xb_, y_, d_, alpha_, rho_, eta_, work_;

  /// Polled by the O(m^2)-per-step refactorizations: true (and the basis
  /// marked invalid) once the current solve's deadline has expired.
  [[nodiscard]] bool outOfTime();
  [[nodiscard]] bool refactorize();
  [[nodiscard]] bool refactorizeDense();
  void computeBasicValues();
  void computeDuals();
  void coldStart();
  [[nodiscard]] bool loadBasis(const LpBasis& warm);
  [[nodiscard]] double columnDot(const std::vector<double>& rowVec,
                                 std::size_t col) const;
};

}  // namespace cpr::ilp
