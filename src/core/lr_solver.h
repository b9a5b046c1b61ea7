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

#include <bit>
#include <cstdint>
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

/// An `LrSortKey` packed into two unsigned words whose lexicographic order
/// is the key order, so sorts and merges compare integers only:
///   * `gain`: the complemented order-preserving bits of `gain + 0.0` (the
///     `+ 0.0` folds −0.0 into +0.0, which compare equal as doubles);
///   * `rest`: the complemented degree in the high half, the index in the
///     low half.
struct LrPackedKey {
  std::uint64_t gain = 0;
  std::uint64_t rest = 0;

  [[nodiscard]] CandIdx idx() const {
    return CandIdx{static_cast<Index>(static_cast<std::uint32_t>(rest))};
  }
  friend bool operator<(const LrPackedKey& a, const LrPackedKey& b) {
    return a.gain < b.gain || (a.gain == b.gain && a.rest < b.rest);
  }
};

[[nodiscard]] inline LrPackedKey packLrKey(const LrSortKey& key) {
  const auto bits = std::bit_cast<std::uint64_t>(key.gain + 0.0);
  // Negative doubles order by complemented bits, the rest by bits with the
  // sign set; complementing the result puts the largest gain first.
  const std::uint64_t ordered =
      bits >> 63 ? ~bits : bits | (std::uint64_t{1} << 63);
  return LrPackedKey{
      ~ordered,
      std::uint64_t{~static_cast<std::uint32_t>(key.degree)} << 32 |
          static_cast<std::uint32_t>(key.idx.value())};
}

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
  std::vector<LrPackedKey> events, spliceBuf;
  /// One penalty update's fresh keys, spliced in while the stale ones drop.
  std::vector<LrPackedKey> additions;
  std::vector<char> dirtyFlag;  ///< per candidate: 0, dirty or stale
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
