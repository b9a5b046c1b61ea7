/// \file lr_solver.h
/// Lagrangian-relaxation pin access optimization (paper Section 3.4).
///
/// Implements Algorithm 2: the conflict constraints (1c) are relaxed into
/// the objective with multipliers λm updated by subgradient steps
/// (Eq. 3, t_k = L_m / k^α); each LR subproblem is solved by the greedy
/// `maxGains` of Algorithm 1 (gain-sorted selection, ties broken toward
/// intervals covering more same-net pins); the best-so-far solution (fewest
/// violated conflict sets) is kept, and remaining conflicts are removed by
/// shrinking intervals to their pins' minimum intervals.
///
/// The hot path consumes a `PanelKernel` (flat CSR arrays) and an optional
/// `LrScratch` arena of reusable buffers. maxGains walks an *event list*,
/// not every candidate: a single-pin candidate that is not its pin's first
/// in key order can never be taken (its pin is already held by then), so
/// the list keeps each pin's best single-pin candidate plus every shared
/// candidate, in key order, and re-keys only what a penalty update touched.
/// Multipliers only rise (Algorithm 1's penalize step), so a pin's best is
/// re-picked only when the best itself got dirtier.
#pragma once

#include <vector>

#include "core/panel_kernel.h"
#include "obs/collector.h"
#include "support/deadline.h"
#include "support/hot_annotations.h"

namespace cpr::core {

/// Subgradient iteration upper bound: the paper's UB = 200.
inline constexpr int kLrMaxIterations = 200;

struct LrOptions {
  /// Engineering addition: stop early when the best violation count has not
  /// improved for this many iterations (0 disables; the paper always runs to
  /// UB or zero violations, but stalled panels only waste time — the best
  /// solution is tracked either way).
  int stallLimit = 40;
  /// Subgradient step exponent α in t_k = L_m / k^α (paper: 0.95).
  double alpha = 0.95;
  /// Skip the final greedy conflict removal. Test-only today (the raw
  /// best-iterate objective); kept for the planned per-stage objective
  /// series that splits LR's optimality gap across its stages.
  bool skipConflictRemoval = false;
  /// Greedy refinement rounds after conflict removal: every pin tries to
  /// upgrade to its most profitable candidate that stays conflict-free.
  /// Complements the shrink-to-minimum step — shrinking repairs conflicts,
  /// re-expansion recovers the interval length the repair gave away. 0
  /// disables.
  int reexpandRounds = 2;
};

/// Sort key of the maxGains greedy: non-increasing gain, ties toward
/// intervals covering more same-net pins, then by index for determinism.
struct LrSortKey {
  double gain;
  Index degree;
  CandIdx idx;
};

/// Reusable per-worker buffers for `solveLr`. Every solve fully
/// (re)initializes the entries it reads, so a scratch can serve panels of
/// any size back to back; reuse only saves the allocations. Buffers keep
/// their capacity across solves — `std::vector::assign`/`clear` never
/// shrink — which is the entire point of the arena.
struct LrScratch {
  std::vector<double> penalties;
  std::vector<double> lambda;
  std::vector<int> csCount;
  std::vector<ConflictIdx> touched;
  /// maxGains event list in key order (each pin's best single-pin candidate
  /// plus every shared candidate) and the buffer a splice builds into.
  std::vector<LrSortKey> events, spliceBuf;
  /// One penalty update's splice: listed keys to drop, fresh keys to add.
  std::vector<LrSortKey> removals, additions;
  std::vector<char> dirtyFlag;
  std::vector<CandIdx> dirtyList;
  // Per pin: the listed best single-pin candidate and its listed gain.
  std::vector<CandIdx> bestSingle;
  std::vector<double> bestGain;
  // maxGains selection double-buffer (current iterate and best-so-far).
  std::vector<CandIdx> curSel, curAssign, bestSel, bestAssign;
  std::vector<char> selFlag;
  // conflict-removal / re-expansion buffers
  std::vector<int> usage, freedWithin;
  std::vector<CandIdx> members;  ///< selected members of one conflict set

  /// Current capacity across all buffers, for the optimizer's arena gauge.
  [[nodiscard]] std::size_t footprintBytes() const CPR_NOALLOC;
};

/// Solves the instance `k` with Lagrangian relaxation. The returned
/// assignment is conflict-free (violations == 0) unless conflict removal was
/// skipped. `scratch` may be null (a local arena is used) or a
/// reused per-worker arena. `deadline` (unset = never expires) is checked
/// after each subgradient iteration (at least one always runs); conflict
/// removal runs regardless, so a timed-out solve still returns a legal
/// assignment.
///
/// When `obs` is non-null the solver reports `lr.*` counters (iterations,
/// removal rounds, re-expansion upgrades, timeouts) plus the
/// per-iteration trace series `lr.iter` (violations, best violations, λ L1
/// norm, and the current selection's objective per subgradient step).
[[nodiscard]] Assignment solveLr(const PanelKernel& k,
                                 const LrOptions& opts = {},
                                 obs::Collector* obs = nullptr,
                                 LrScratch* scratch = nullptr,
                                 support::Deadline deadline = {}) CPR_HOT;

/// One invocation of Algorithm 1's maxGains greedy: selects one interval per
/// pin maximizing total gain (profit minus penalty), ignoring conflicts.
/// Exposed for tests.
[[nodiscard]] std::vector<Index> maxGains(const PanelKernel& k,
                                          const std::vector<double>& gains);

}  // namespace cpr::core
