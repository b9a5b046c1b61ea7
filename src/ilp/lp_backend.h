/// \file lp_backend.h
/// The LP engine interface and its result/option types.
///
/// The one production engine is the revised simplex (revised_simplex.h):
/// sparse columns, native variable bounds, Bland's-rule anti-cycling,
/// bounded refactorization, and dual-simplex re-solves from a caller-supplied
/// basis. The branch & bound constructs it directly. The `LpBackend`
/// interface remains as the seam the test suites use to run it and the
/// test-only dense reference engine over the same models.
///
/// A backend instance is *stateful*: `bind` compiles one model into the
/// engine's internal form, after which `solve` may be called many times
/// with different fixings (the branch & bound node loop), each optionally
/// warm-started from the basis a previous solve returned. Instances are
/// single-threaded and owned by one search; concurrent panel solves each
/// create their own.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "ilp/model.h"
#include "ilp/tolerances.h"
#include "support/deadline.h"

namespace cpr::ilp {

enum class LpStatus {
  Optimal,
  Infeasible,
  Unbounded,
  IterationLimit,
  TimeLimit,  ///< the per-solve Deadline fired mid-iteration
};

struct LpResult {
  LpStatus status = LpStatus::IterationLimit;
  double objective = 0.0;
  /// Structural variable values (size = model vars); may be empty when the
  /// solve ended before computing any (Infeasible, or an expired deadline).
  std::vector<double> x;
  long pivots = 0;        ///< simplex pivots performed (all phases)
  bool warmStarted = false;  ///< solve resumed from a caller-supplied basis
};

struct LpOptions {
  long maxIterations = tol::kDefaultLpIterationLimit;
  double eps = tol::kPivotEps;
  /// Allow warm-started re-solves from a parent basis (branch & bound).
  /// Disabled only by the cold-vs-warm benches and equivalence tests.
  bool warmStart = true;
};

/// Variable fixing for branch & bound: -1 free, 0/1 fixed.
using Fixing = std::vector<std::int8_t>;

/// Snapshot of a simplex basis, the warm-start currency between solves.
/// `basicOf[i]` is the column basic in row i of the engine's equality form
/// (structural columns first, then one logical/slack column per row);
/// `atUpper[j]` marks nonbasic columns sitting at their upper bound. Only
/// meaningful for the engine (and bound model) that produced it; engines
/// that cannot warm-start leave it empty.
struct LpBasis {
  std::vector<std::int32_t> basicOf;
  std::vector<std::uint8_t> atUpper;

  [[nodiscard]] bool empty() const { return basicOf.empty(); }
};

class LpBackend {
 public:
  virtual ~LpBackend() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Compiles `m` into the engine's internal form. Must be called before
  /// `solve`; the model must outlive the binding. Re-binding replaces the
  /// previous model and invalidates any basis snapshots taken from it.
  virtual void bind(const Model& m, const LpOptions& opts) = 0;

  /// Solves the bound model's LP relaxation.
  ///   fix       per-variable fixing (nullptr = all free);
  ///   warm      basis from a previous solve of the same bound model
  ///             (typically the branch & bound parent node); engines unable
  ///             to warm-start ignore it;
  ///   basisOut  when non-null, receives the final basis of an Optimal
  ///             solve so children can warm-start from it;
  ///   deadline  per-solve wall-clock budget (unset = none) — the one
  ///             Deadline threaded down from the optimizer, composed once
  ///             by the caller, never re-derived here.
  [[nodiscard]] virtual LpResult solve(const Fixing* fix = nullptr,
                                       const LpBasis* warm = nullptr,
                                       LpBasis* basisOut = nullptr,
                                       support::Deadline deadline = {}) = 0;
};

}  // namespace cpr::ilp
