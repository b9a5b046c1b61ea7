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
/// The hot path consumes a compiled `PanelKernel` (flat CSR arrays) and an
/// optional `LrScratch` arena of reusable buffers; the `Problem` overload is
/// a convenience that compiles a kernel internally.
#pragma once

#include <vector>

#include "core/panel_kernel.h"
#include "core/problem.h"
#include "obs/collector.h"
#include "support/deadline.h"
#include "support/hot_annotations.h"

namespace cpr::core {

struct LrOptions {
  /// Iteration upper bound (the paper's experiments use UB = 200).
  int maxIterations = 200;
  /// Wall-clock budget; unset (the default) never expires. Composes with the
  /// per-call deadline passed to `solveLr`. The subgradient loop checks it
  /// after each iteration (at least one iteration always runs), and the
  /// conflict-removal repair runs regardless, so a timed-out solve still
  /// returns a legal assignment.
  support::Deadline deadline;
  /// Engineering addition: stop early when the best violation count has not
  /// improved for this many iterations (0 disables; the paper always runs to
  /// UB or zero violations, but stalled panels only waste time — the best
  /// solution is tracked either way).
  int stallLimit = 40;
  /// Subgradient step exponent α in t_k = L_m / k^α (paper: 0.95).
  double alpha = 0.95;
  /// Also decrease multipliers of satisfied conflict sets (full subgradient
  /// of Eq. 3 instead of Algorithm 1's increase-on-violation). Off by
  /// default to match the paper.
  bool bidirectionalMultipliers = false;
  /// Skip the final greedy conflict removal (used when quantifying raw LR
  /// convergence, e.g. the Fig. 6(b) objective comparison).
  bool skipConflictRemoval = false;
  /// Greedy refinement rounds after conflict removal: every pin tries to
  /// upgrade to its most profitable candidate that stays conflict-free.
  /// Complements the shrink-to-minimum step — shrinking repairs conflicts,
  /// re-expansion recovers the interval length the repair gave away. 0
  /// disables.
  int reexpandRounds = 2;
};

struct LrStats {
  int iterations = 0;        ///< subgradient iterations executed
  int bestViolations = 0;    ///< violations of the best pre-removal solution
  int removalRounds = 0;     ///< greedy conflict removal sweeps
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
  std::vector<LrSortKey> keys, dirtyKeys, mergeBuf;
  std::vector<char> dirtyFlag;
  std::vector<CandIdx> dirtyList;
  // maxGains selection double-buffer (current iterate and best-so-far).
  std::vector<CandIdx> curSel, curAssign, bestSel, bestAssign;
  std::vector<char> selFlag;
  // conflict-removal / re-expansion buffers
  std::vector<int> usage, freedWithin;
  std::vector<CandIdx> members;  ///< selected members of one conflict set

  /// Current capacity across all buffers, for the optimizer's arena gauge.
  [[nodiscard]] std::size_t footprintBytes() const CPR_NOALLOC;
};

/// Solves the compiled instance `k` with Lagrangian relaxation. Requires
/// profits and conflicts to have been filled before compilation. The
/// returned assignment is conflict-free (violations == 0) unless conflict
/// removal was skipped. `scratch` may be null (a local arena is used) or a
/// reused per-worker arena.
///
/// When `obs` is non-null the solver reports `lr.*` counters plus the
/// per-iteration trace series `lr.iter` (violations, best violations, λ L1
/// norm, and the current selection's objective per subgradient step).
[[nodiscard]] Assignment solveLr(const PanelKernel& k,
                                 const LrOptions& opts = {},
                                 LrStats* stats = nullptr,
                                 obs::Collector* obs = nullptr,
                                 LrScratch* scratch = nullptr,
                                 support::Deadline deadline = {}) CPR_HOT;

/// Convenience overload: compiles `p` into a temporary kernel and solves.
[[nodiscard]] Assignment solveLr(const Problem& p, const LrOptions& opts = {},
                                 LrStats* stats = nullptr,
                                 obs::Collector* obs = nullptr);

/// One invocation of Algorithm 1's maxGains greedy: selects one interval per
/// pin maximizing total gain (profit minus penalty), ignoring conflicts.
/// Exposed for tests.
[[nodiscard]] std::vector<Index> maxGains(const Problem& p,
                                          const std::vector<double>& gains);

}  // namespace cpr::core
