/// \file dense_simplex.h
/// Dense two-phase primal simplex for the LP relaxation of `ilp::Model` —
/// test-only reference code. The production engine (ilp/revised_simplex.h)
/// is cross-checked against it: ilp_backend_test runs both engines through
/// the `LpBackend` seam over the same golden and randomized models, and the
/// simplex/edge suites pin this engine's own behaviour.
///
/// Solves   max c·x   s.t.  Ax {<=,=,>=} b,  0 <= x <= 1
/// where the unit upper bounds come from the binary declarations in the
/// model. A textbook dense implementation (Dantzig pricing with a
/// Bland's-rule anti-cycling fallback), not a sparse production LP code:
/// bounds are materialized as explicit `x_i <= 1` rows, so every pivot
/// touches a (rows + vars) x columns tableau. It cannot warm-start.
#pragma once

#include "ilp/lp_backend.h"
#include "ilp/model.h"

namespace cpr::ilp {

struct DenseLpOptions {
  /// Skip the automatic `x_i <= 1` rows (valid when every variable is
  /// covered by an equality row with unit coefficients, as in the pin
  /// access set-partitioning model).
  bool implicitUnitBounds = false;
};

/// Solves the LP relaxation of `m` with the dense engine. When `fix` is
/// non-null, fixed variables are substituted out before solving and reported
/// back at their fixed values. `deadline` bounds the pivot loop.
[[nodiscard]] LpResult solveLp(const Model& m, const DenseLpOptions& opts = {},
                               const Fixing* fix = nullptr,
                               support::Deadline deadline = {});

/// The dense engine as an `LpBackend`. Stateless beyond the bound model:
/// `solve` ignores `warm` and leaves `basisOut` empty.
class DenseSimplexBackend final : public LpBackend {
 public:
  [[nodiscard]] std::string_view name() const override { return "dense"; }
  void bind(const Model& m, const LpOptions&) override { model_ = &m; }
  [[nodiscard]] LpResult solve(const Fixing* fix, const LpBasis* warm,
                               LpBasis* basisOut,
                               support::Deadline deadline) override;

 private:
  const Model* model_ = nullptr;
};

}  // namespace cpr::ilp
