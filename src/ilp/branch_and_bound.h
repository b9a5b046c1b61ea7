/// \file branch_and_bound.h
/// Exact binary ILP solver: LP-relaxation branch & bound.
///
/// Depth-first branch & bound over `ilp::Model` binaries. Node bounds come
/// from the revised simplex (revised_simplex.h): the engine is bound to the
/// model once and re-solved per node with a tightened fixing, warm-starting
/// every child from its parent's optimal basis (a dual-simplex re-solve,
/// typically a handful of pivots). Branches on the most fractional variable, exploring the x=1
/// child first (effective for the paper's set-partitioning structure, where
/// fixing an interval to 1 rapidly propagates through the pin-equality
/// rows — and the child relaxation continues directly from the basis still
/// loaded in the engine).
#pragma once

#include <vector>

#include "ilp/lp_backend.h"
#include "ilp/model.h"
#include "support/deadline.h"

namespace cpr::ilp {

enum class IlpStatus {
  Optimal,      ///< proven optimal incumbent
  Infeasible,   ///< no binary assignment satisfies the constraints
  NodeLimit,    ///< search truncated; `x` holds the best incumbent (if any)
  TimeLimit,    ///< wall-clock budget exhausted; best incumbent returned
};

struct IlpResult {
  IlpStatus status = IlpStatus::Infeasible;
  double objective = 0.0;
  std::vector<double> x;  ///< 0/1 values; empty when no incumbent found
  long nodesExplored = 0;
  long lpPivots = 0;  ///< total simplex pivots across all node relaxations
  long lpWarmSolves = 0;  ///< node relaxations resumed from a parent basis
  long lpColdSolves = 0;  ///< node relaxations solved from scratch
};

struct IlpOptions {
  long maxNodes = 10'000'000;
  /// Wall-clock budget for the whole search, threaded into every LP solve.
  /// The single deadline field on the options path: callers with their own
  /// budget compose it in via `support::Deadline::soonerOf` before the call.
  /// Default-constructed = unset = never expires.
  support::Deadline deadline;
  double integralityEps = tol::kIntegralityEps;
  LpOptions lp;
};

/// Solves the 0/1 model exactly. When `opts.deadline` fires the best
/// incumbent found so far is returned with IlpStatus::TimeLimit.
[[nodiscard]] IlpResult solveBinaryIlp(const Model& m,
                                       const IlpOptions& opts = {});

}  // namespace cpr::ilp
