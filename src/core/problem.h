/// \file problem.h
/// The weighted interval assignment problem (paper Section 3.3).
///
/// A `Problem` is the panel-level (or multi-panel) instance produced by pin
/// access interval generation and linear conflict set detection; it is the
/// common input of both solvers (LR and the exact ILP translation).
/// Notation follows the paper's Table 1: pins `pj` with candidate sets `Sj`,
/// intervals `Ii` with profit `f(Ii)`, conflict sets `Cm`.
#pragma once

#include <string>
#include <vector>

#include "geom/interval.h"
#include "geom/types.h"
#include "support/hot_annotations.h"

namespace cpr::core {

using geom::Coord;
using geom::Index;

/// A candidate pin access interval: a horizontal metal strip on one M2
/// track. Intervals covering several same-net pins are deduplicated into a
/// single entry whose `pins` lists every covered pin (Fig. 3(b)).
struct AccessInterval {
  Coord track = 0;          ///< global M2 track
  geom::Interval span;      ///< column range
  /// Span used for conflict detection: non-minimal intervals are inflated by
  /// the line-end spacing guard so that any two selected diff-net intervals
  /// keep a manufacturable gap (the router's line-end extensions then cannot
  /// collide). Minimum intervals keep their true span so Theorem 1's
  /// feasibility argument survives arbitrarily tight pin placements.
  geom::Interval conflictSpan;
  Index net = geom::kInvalidIndex;
  std::vector<Index> pins;  ///< *problem-local* pin indices covered
  bool minimal = false;     ///< someone's minimum interval (Theorem 1 fallback)
};

/// One pin `pj` of the instance together with its candidate set `Sj`.
struct ProblemPin {
  Index designPin = geom::kInvalidIndex;  ///< index into Design::pins
  Index net = geom::kInvalidIndex;
  std::vector<Index> intervals;  ///< Sj: candidate interval ids
  /// A minimum interval covering only this pin; always selectable, which is
  /// what makes Formula (1) feasible (Theorem 1). kInvalidIndex when the pin
  /// has no access at all (every track blocked).
  Index minimalInterval = geom::kInvalidIndex;
};

/// A maximal set of pairwise-overlapping intervals on one track (`Cm`).
struct ConflictSet {
  std::vector<Index> intervals;
  Coord track = 0;
  geom::Interval common;  ///< non-empty intersection of all members; span = Lm
};

/// Full weighted interval assignment instance.
struct Problem {
  std::vector<ProblemPin> pins;
  std::vector<AccessInterval> intervals;
  std::vector<ConflictSet> conflicts;
  /// Base profit f(Ii) per interval (default sqrt(span), Section 3.3). The
  /// objective weight of x_i is `degree(i) * profit[i]` because Formula (1a)
  /// counts an interval once per covered pin.
  std::vector<double> profit;

  /// Number of pins covered by interval `i` (d_i).
  [[nodiscard]] int degree(Index i) const {
    return static_cast<int>(intervals[static_cast<std::size_t>(i)].pins.size());
  }
  /// Objective weight of selecting interval `i`.
  [[nodiscard]] double weight(Index i) const {
    return degree(i) * profit[static_cast<std::size_t>(i)];
  }
};

/// Result of a solver: one interval per pin.
struct Assignment {
  /// Per problem-local pin: assigned interval id (kInvalidIndex when the pin
  /// had no candidates at all).
  std::vector<Index> intervalOfPin;
  /// Sum over pins of f(assigned interval) — the paper's Formula (1a) value.
  double objective = 0.0;
  /// Conflict sets still violated (0 for legal assignments).
  int violations = 0;
  /// True when the solver proved optimality (ILP solver only). Work
  /// counts (LR iterations, branch & bound nodes, simplex pivots) are
  /// reported through the `obs::Collector` passed to the solver instead of
  /// being carried here.
  bool provedOptimal = false;
};

/// Recomputes `objective` and `violations` of `a` against `p`, independent of
/// the precomputed conflict sets: violations are counted by direct geometric
/// overlap between selected intervals of different nets on the same track.
/// Used by tests as ground truth and by solvers as a final audit.
struct AssignmentAudit {
  double objective = 0.0;
  int overlapsBetweenNets = 0;  ///< pairs of selected diff-net intervals overlapping
  int unassignedPins = 0;
  bool eachPinCovered = true;   ///< every assigned interval actually covers its pin
};
/// CPR_COLD_OK: correctness cross-check, allocates by design (see the
/// kernel overload).
[[nodiscard]] AssignmentAudit audit(const Problem& p,
                                    const Assignment& a) CPR_COLD_OK;

/// Human-readable one-line summary ("pins=.. intervals=.. conflicts=..").
[[nodiscard]] std::string summary(const Problem& p);

}  // namespace cpr::core
