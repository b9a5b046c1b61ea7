/// \file solver.h
/// Unified solver interface over the weighted interval assignment problem.
///
/// Both solving paths of the reproduction — the scalable Lagrangian
/// relaxation (Section 3.4) and the exact ILP (Formula (1) translated into an
/// `ilp::Model` and solved to proven optimality by the LP-based branch &
/// bound, playing the paper's commercial ILP solver) — implement the same
/// `Solver` interface, so the design-level optimizer, the benches, and the
/// CLI select a solver by value instead of switching on an enum at every
/// call site. Solvers are stateless after construction and safe to share
/// across panel-solving threads; all mutable per-solve state lives in the
/// caller-owned `PanelScratch` arena or in locals of the solve.
///
/// The primary entry point consumes a compiled `PanelKernel` (see
/// panel_kernel.h) plus an optional scratch arena; the `Problem` overload is
/// a convenience that compiles a kernel internally.
///
/// Every `solve` accepts an optional `obs::Collector` into which the solver
/// reports its canonical counters and per-iteration trace series (see
/// obs/names.h); pass nullptr to skip all instrumentation.
#pragma once

#include <memory>
#include <optional>
#include <string_view>

#include "core/lr_solver.h"
#include "core/panel_kernel.h"
#include "core/problem.h"
#include "ilp/branch_and_bound.h"
#include "obs/collector.h"
#include "support/deadline.h"
#include "support/hot_annotations.h"
#include "support/status.h"

namespace cpr::core {

/// Solver selection for option structs and command lines: the paper's two
/// methods.
enum class Method {
  Lr,   ///< Lagrangian relaxation + greedy conflict removal (Algorithm 2)
  Ilp,  ///< Formula (1) solved to proven optimality by ilp::solveBinaryIlp
};

/// The one name table for `Method`: "lr" and "ilp", as spelled by the
/// `--pin-access` flags and the service protocol's `pin_access` field.
/// Any other name yields nullopt.
[[nodiscard]] std::optional<Method> methodFromName(std::string_view name);

/// Per-worker arena for the solvers behind the interface. A worker thread
/// owns one `PanelScratch` and reuses it across all panels it processes;
/// each solve fully reinitializes what it reads, so reuse only saves
/// allocations (see LrScratch). The ILP path builds its own model per panel
/// and uses no arena.
struct PanelScratch {
  LrScratch lr;

  /// Current capacity of the arena, for the optimizer's gauge.
  [[nodiscard]] std::size_t footprintBytes() const {
    return lr.footprintBytes();
  }
};

class Solver {
 public:
  virtual ~Solver() = default;
  [[nodiscard]] virtual std::string_view name() const = 0;
  /// Solves the compiled instance `k` (profits and conflicts filled before
  /// compilation). `scratch` may be null (solvers fall back to local
  /// buffers) or a reused per-worker arena. Reports counters and traces
  /// into `obs` when non-null. `deadline` is a per-call wall-clock budget
  /// (unset = none); built-in solvers compose it with any deadline carried
  /// in their options and return their best legal incumbent when it fires.
  [[nodiscard]] virtual Assignment solve(const PanelKernel& k,
                                         PanelScratch* scratch = nullptr,
                                         obs::Collector* obs = nullptr,
                                         support::Deadline deadline = {})
      const = 0;
  /// Convenience: compiles `p` into a temporary kernel and solves.
  [[nodiscard]] Assignment solve(const Problem& p,
                                 obs::Collector* obs = nullptr) const;

  /// Fault-isolating entry point used at the panel boundary: never throws.
  /// Catches every exception out of `solve` (mapped to StatusCode::Failed)
  /// and classifies the result —
  ///   Ok         legal assignment, solver finished on its own terms;
  ///   Degraded   assignment still violates conflict rows (needs repair);
  ///   TimedOut   `deadline` fired; the value is the best incumbent, which
  ///              may be legal (usable) or empty;
  ///   Infeasible nothing assigned although the instance has pins;
  ///   Failed     `solve` threw; the value is unusable.
  /// The caller decides whether a non-Ok value is good enough or whether to
  /// walk further down the degradation ladder.
  [[nodiscard]] support::Outcome<Assignment> trySolve(
      const PanelKernel& k, PanelScratch* scratch = nullptr,
      obs::Collector* obs = nullptr, support::Deadline deadline = {}) const;
};

/// Algorithm 2 behind the interface; thin wrapper over `solveLr`.
class LrSolver final : public Solver {
 public:
  using Solver::solve;
  explicit LrSolver(LrOptions opts = {}) : opts_(opts) {}
  [[nodiscard]] std::string_view name() const override { return "lr"; }
  [[nodiscard]] Assignment solve(const PanelKernel& k,
                                 PanelScratch* scratch = nullptr,
                                 obs::Collector* obs = nullptr,
                                 support::Deadline deadline = {}) const override
      CPR_HOT;
  [[nodiscard]] const LrOptions& options() const { return opts_; }

 private:
  LrOptions opts_;
};

/// The exact path: builds Formula (1) with `buildIlpModel`, solves it with
/// the LP-based branch & bound, and decodes the 0/1 solution. The result is
/// proved optimal unless the node budget or a deadline cut the search; with
/// no incumbent by then every pin is left unassigned.
class IlpSolver final : public Solver {
 public:
  using Solver::solve;
  explicit IlpSolver(ilp::IlpOptions opts = {}) : opts_(opts) {}
  [[nodiscard]] std::string_view name() const override { return "ilp"; }
  // CPR_COLD_OK: the exact path is the optimality reference, not the
  // scaling-critical one; building the ilp::Model allocates by design.
  [[nodiscard]] Assignment solve(const PanelKernel& k,
                                 PanelScratch* scratch = nullptr,
                                 obs::Collector* obs = nullptr,
                                 support::Deadline deadline = {}) const override
      CPR_COLD_OK;
  [[nodiscard]] const ilp::IlpOptions& options() const { return opts_; }

 private:
  ilp::IlpOptions opts_;
};

/// Everything `makeSolver` needs, in one bundle: the method plus each
/// engine's options. This is THE options path into the solver layer — the
/// optimizer embeds one, the CLI and benches fill one, and per-engine knobs
/// are reached through it instead of loose factory parameters.
struct SolverOptions {
  Method method = Method::Lr;
  LrOptions lr;
  ilp::IlpOptions ilp;
};

/// Factory used by the optimizer, benches, and CLI.
[[nodiscard]] std::unique_ptr<Solver> makeSolver(const SolverOptions& opts = {});

}  // namespace cpr::core
