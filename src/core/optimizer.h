/// \file optimizer.h
/// PinAccessOptimizer facade: design-level concurrent pin access
/// optimization (paper Problem 1), panel by panel.
///
/// For each standard-cell row the facade generates pin access intervals
/// (Section 3.1), detects conflict sets (3.2), and solves the weighted
/// interval assignment through the unified `Solver` interface (LR or the
/// exact ILP — solver.h). The result maps every accessible design pin to one
/// conflict-free M2 interval — the "partial routes" handed to the router
/// (Section 4). Each panel's kernel lives only while its worker solves it,
/// so pin access memory is O(workers × panel), not O(design).
///
/// Every run is instrumented: `PinAccessPlan::stats` carries the merged
/// per-panel counters, trace series, and phase timers. Each panel is
/// processed under its own collector (src = panel index) and the collectors
/// are merged in panel order, so all counters and series are identical for
/// any `threads` value; only span wall-times vary.
#pragma once

#include <memory>
#include <vector>

#include "core/interval_gen.h"
#include "core/solver.h"
#include "db/design.h"
#include "obs/collector.h"
#include "obs/names.h"
#include "support/deadline.h"

namespace cpr::core {

struct OptimizerOptions {
  GenOptions gen;
  /// Solver method + per-engine options, handed to `makeSolver` verbatim.
  /// One nested bundle instead of flat method/lr/ilp fields, so every
  /// layer from the CLI down spells solver configuration the same way.
  SolverOptions solve;
  /// Run-level wall-clock budget (unset = none). Panels that start after it
  /// fires skip their solver and take the fast degradation rungs, so the
  /// optimizer always terminates promptly with a legal (if modest) plan.
  support::Deadline deadline;
  /// Per-panel solve budget in seconds (0 = none). Each panel gets
  /// `deadline.sub(panelBudgetSeconds)` — its own slice, never outliving the
  /// run deadline. Timeouts are wall-clock events, so plans under an active
  /// budget are NOT guaranteed identical across thread counts or runs.
  double panelBudgetSeconds = 0.0;
  /// Worker threads for panel-level parallelism ("concurrent pin access
  /// optimization ... can also handle multiple panels simultaneously with
  /// scalable solutions", Section 3). Panels are independent and stats merge
  /// in panel order, so results are identical for any thread count; 0 = use
  /// the hardware concurrency.
  int threads = 0;
  /// Overrides `solve` when set: panels are solved by this solver instance
  /// (it must be safe for concurrent `solve` calls, as the built-in two
  /// are).
  std::shared_ptr<const Solver> solver;
};

/// One pin's optimized access interval (a horizontal M2 partial route).
struct PinRoute {
  Coord track = -1;
  geom::Interval span;  ///< empty when the pin could not be assigned

  [[nodiscard]] bool valid() const { return !span.empty(); }
};

struct PinAccessPlan {
  /// Indexed by design pin id.
  std::vector<PinRoute> routes;
  double objective = 0.0;  ///< sum over pins of f(assigned interval)
  /// Merged per-panel instrumentation (counters, series, phase timers).
  obs::Collector stats;

  // Thin accessors over the canonical counters (kept for call sites that
  // predate the obs subsystem).
  [[nodiscard]] long totalIntervals() const {
    return stats.counter(obs::names::kPaoIntervals);
  }
  [[nodiscard]] long totalConflicts() const {
    return stats.counter(obs::names::kPaoConflicts);
  }
  [[nodiscard]] int unassignedPins() const {
    return static_cast<int>(stats.counter(obs::names::kPaoUnassigned));
  }
  /// Panels that fell below the primary solver: each faulted panel counts
  /// once, as `pao.panel.failed` (the solver threw) or `pao.panel.degraded`
  /// (it timed out or under-delivered). `pao.fallbacks` is not added — a
  /// panel that walked the ladder is already one of the two.
  [[nodiscard]] long panelsBelowPrimary() const {
    return stats.counter(obs::names::kPaoPanelFailed) +
           stats.counter(obs::names::kPaoPanelDegraded);
  }
  /// True when no panel's solver gave up on proving optimality and no panel
  /// fell back to the LR heuristic. Trivially true for Method::Lr.
  [[nodiscard]] bool allProvedOptimal() const {
    return stats.counter(obs::names::kIlpNotProved) == 0 &&
           stats.counter(obs::names::kPaoFallbacks) == 0;
  }
};

[[nodiscard]] PinAccessPlan optimizePinAccess(const db::Design& design,
                                              const OptimizerOptions& opts = {});

}  // namespace cpr::core
