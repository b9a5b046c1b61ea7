/// \file tolerances.h
/// Named numeric tolerances shared by the LP engine and the branch & bound
/// in `src/ilp`.
///
/// One header so the pivot, feasibility, and integrality thresholds have a
/// single spelling, a documented meaning, and one place to tighten or relax.
/// The test-only dense reference engine uses them too: both engines must
/// agree on status + objective across the golden LP suite, which only holds
/// when they classify "zero" the same way.
#pragma once

namespace cpr::ilp::tol {

/// Reduced-cost / pivot-element threshold: anything with absolute value at
/// or below this is treated as zero during pricing and elimination.
inline constexpr double kPivotEps = 1e-9;

/// Primal feasibility slack on variable bounds and row activities; also the
/// tolerance used when classifying a fully-substituted row as consistent.
inline constexpr double kFeasEps = 1e-7;

/// Fractionality threshold for branch & bound: a relaxation value within
/// this of 0 or 1 counts as integral.
inline constexpr double kIntegralityEps = 1e-6;

/// Pruning slack: a node whose LP bound does not beat the incumbent by more
/// than this is fathomed (guards against re-expanding on rounding noise).
inline constexpr double kBoundImprovementEps = 1e-9;

/// Stand-in for an unbounded variable bound in the revised engine (slack
/// columns of inequality rows are one-sided).
inline constexpr double kInfiniteBound = 1e30;

/// Default per-solve simplex iteration budget.
inline constexpr long kDefaultLpIterationLimit = 200000;

/// Consecutive degenerate pivots tolerated before switching to Bland's
/// rule (anti-cycling fallback).
inline constexpr int kDegenerateRunLimit = 64;

/// Revised engine: pivots between basis refactorizations. The explicit
/// inverse is updated in O(m^2) per pivot and rebuilt from scratch at this
/// cadence to bound numerical drift.
inline constexpr int kRefactorInterval = 64;

/// Infinity-norm residual of `B x_B - (b - N x_N)` above which the revised
/// engine refactorizes and recomputes before trusting an optimal basis.
inline constexpr double kResidualEps = 1e-6;

}  // namespace cpr::ilp::tol
