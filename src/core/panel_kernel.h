/// \file panel_kernel.h
/// PanelKernel: the weighted interval assignment instance (paper Section
/// 3.3) in compressed sparse rows — the one representation every solver
/// reads.
///
/// Notation follows the paper's Table 1: pins `pj` with candidate sets `Sj`,
/// intervals `Ii` with profit `f(Ii)`, conflict sets `Cm`. Interval
/// generation (interval_gen.h) appends pins and intervals to a
/// `PanelKernelBuilder` in generation order, writing each interval's covered
/// pins as the interval is interned. `finish` then runs the conflict
/// scanline (Section 3.2) straight into the conflict rows, derives the
/// pin→candidate and interval→conflict rows by counting-sort transposes, and
/// computes the profit columns once. Every adjacency is one offsets array
/// plus one flat id array, and every per-object attribute a packed column,
/// so the LR solver, the ILP translation and the `audit` iterate contiguous
/// spans instead of chasing per-object heap vectors.
///
/// The three CSR index spaces are distinct strong types (`PinIdx`,
/// `CandIdx`, `ConflictIdx` — see core/ids.h): an accessor can only be
/// subscripted with an id from its own space, and the spans hand back typed
/// ids, so pin/interval/conflict mix-ups fail to compile instead of reading
/// a wrong-but-in-bounds column.
///
/// Ownership: a finished kernel owns every array and borrows nothing, so it
/// is self-contained and safe to hand across threads by const reference.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/ids.h"
#include "geom/interval.h"
#include "geom/types.h"
#include "obs/collector.h"
#include "support/contracts.h"
#include "support/hot_annotations.h"

namespace cpr::core {

using geom::Coord;
using geom::Index;

/// Base profit f(Ii) of an interval.
enum class ProfitModel {
  SqrtSpan,   ///< f(I) = sqrt(span)  — the paper's balanced objective
  LinearSpan, ///< f(I) = span        — ablation: unbalanced maximization
};

/// Result of a solver: one interval per pin.
struct Assignment {
  /// Per kernel pin: assigned interval id (kInvalidIndex when the pin had no
  /// candidates at all).
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

/// Independent recount of an assignment (see `audit`).
struct AssignmentAudit {
  double objective = 0.0;
  int overlapsBetweenNets = 0;  ///< pairs of selected diff-net intervals overlapping
  int unassignedPins = 0;
  bool eachPinCovered = true;   ///< every assigned interval actually covers its pin
};

class PanelKernelBuilder;

class PanelKernel {
 public:
  [[nodiscard]] std::size_t numPins() const { return designPin_.size(); }
  [[nodiscard]] std::size_t numIntervals() const { return track_.size(); }
  [[nodiscard]] std::size_t numConflicts() const { return confTrack_.size(); }

  // ---- per-pin ----
  /// Sj: candidate interval ids of pin `j`, ascending.
  [[nodiscard]] std::span<const CandIdx> candidatesOf(PinIdx j) const {
    return rowSpan(pinCandOff_, pinCand_, j.idx());
  }
  /// Sj sorted by non-increasing profit (ties by id) — the LR re-expansion
  /// order, precomputed at `finish` since it only depends on the instance.
  [[nodiscard]] std::span<const CandIdx> sortedCandidatesOf(PinIdx j) const {
    return rowSpan(pinCandOff_, sortedCand_, j.idx());
  }
  /// A minimum interval of pin `j`: always selectable, which is what makes
  /// Formula (1) feasible (Theorem 1). Invalid when the pin has no access at
  /// all (every track blocked).
  [[nodiscard]] CandIdx minimalIntervalOf(PinIdx j) const {
    return minimalOf_[j.idx()];
  }
  /// Index into Design::pins.
  [[nodiscard]] Index designPinOf(PinIdx j) const {
    return designPin_[j.idx()];
  }

  // ---- per-interval ----
  /// Kernel pins covered by interval `i`, in generation order.
  [[nodiscard]] std::span<const PinIdx> pinsOf(CandIdx i) const {
    return rowSpan(ivPinOff_, ivPin_, i.idx());
  }
  /// Conflict sets containing interval `i`, ascending.
  [[nodiscard]] std::span<const ConflictIdx> conflictsOf(CandIdx i) const {
    return rowSpan(ivConfOff_, ivConf_, i.idx());
  }
  /// Global M2 track.
  [[nodiscard]] Coord trackOf(CandIdx i) const { return track_[i.idx()]; }
  /// Column range of the metal strip.
  [[nodiscard]] const geom::Interval& spanOf(CandIdx i) const {
    return span_[i.idx()];
  }
  [[nodiscard]] Index netOf(CandIdx i) const { return net_[i.idx()]; }
  /// Base profit f(Ii).
  [[nodiscard]] double profitOf(CandIdx i) const { return profit_[i.idx()]; }
  /// Objective weight degree(i) * profit(i): Formula (1a) counts an
  /// interval once per covered pin.
  [[nodiscard]] double weightOf(CandIdx i) const { return weight_[i.idx()]; }
  /// d_i: number of covered pins.
  [[nodiscard]] Index degreeOf(CandIdx i) const { return degree_[i.idx()]; }
  /// Someone's minimum interval (the Theorem 1 fallback).
  [[nodiscard]] bool isMinimal(CandIdx i) const {
    return minimalBit_[i.idx()] != 0;
  }

  // ---- per-conflict ----
  /// Member interval ids of conflict set `m`.
  [[nodiscard]] std::span<const CandIdx> membersOf(ConflictIdx m) const {
    return rowSpan(confMemOff_, confMem_, m.idx());
  }
  [[nodiscard]] Coord conflictTrackOf(ConflictIdx m) const {
    return confTrack_[m.idx()];
  }
  /// Lm: span of the members' common guarded intersection (the subgradient
  /// step scale).
  [[nodiscard]] Coord conflictSpanOf(ConflictIdx m) const {
    return confLm_[m.idx()];
  }

  /// Bytes held by the flat arrays (size-based, so the value is
  /// deterministic for a given instance regardless of allocator growth).
  [[nodiscard]] std::size_t footprintBytes() const;

 private:
  friend class PanelKernelBuilder;
  PanelKernel() = default;

  template <typename T>
  [[nodiscard]] static std::span<const T> rowSpan(
      const std::vector<Index>& off, const std::vector<T>& data,
      std::size_t k) {
    // Contract: `k` names a row of this CSR adjacency and the row's
    // half-open offset range lies inside `data`. Debug builds fail loudly
    // on an out-of-range row id instead of handing out a wild span.
    CPR_DCHECK(k + 1 < off.size());
    CPR_DCHECK(off[k] <= off[k + 1]);
    CPR_DCHECK(std::size_t(off[k + 1]) <= data.size());
    return {data.begin() + off[k], data.begin() + off[k + 1]};
  }

  // CSR adjacencies (offsets have size n+1; data is the flat concatenation).
  std::vector<Index> pinCandOff_;
  std::vector<CandIdx> pinCand_;   ///< pin -> candidate intervals
  std::vector<CandIdx> sortedCand_;  ///< pinCand_ rows sorted by profit desc
  std::vector<Index> ivPinOff_{0};
  std::vector<PinIdx> ivPin_;  ///< interval -> covered pins
  std::vector<Index> confMemOff_{0};
  std::vector<CandIdx> confMem_;  ///< conflict -> member intervals
  std::vector<Index> ivConfOff_;
  std::vector<ConflictIdx> ivConf_;  ///< interval -> conflict sets
  // Packed per-interval columns.
  std::vector<Coord> track_;
  std::vector<geom::Interval> span_;
  std::vector<Index> net_;
  std::vector<double> profit_, weight_;
  std::vector<Index> degree_;
  std::vector<char> minimalBit_;
  // Packed per-pin columns.
  std::vector<CandIdx> minimalOf_;
  std::vector<Index> designPin_;
  // Packed per-conflict columns.
  std::vector<Coord> confTrack_, confLm_;
};

/// The one construction path of a `PanelKernel`. Interval generation (and
/// tests hand-building instances) append pins and intervals; ids are
/// assigned densely in append order.
class PanelKernelBuilder {
 public:
  /// `model` sets f(I). Two diff-net intervals conflict when their spans,
  /// each inflated by `db::kLineEndExtension` columns per side, overlap on
  /// one track.
  explicit PanelKernelBuilder(ProfitModel model) : model_(model) {}

  [[nodiscard]] PinIdx addPin(Index designPin);
  /// Appends an interval covering `pins` (its pin row, written now).
  [[nodiscard]] CandIdx addInterval(Coord track, geom::Interval span,
                                    Index net, std::span<const PinIdx> pins,
                                    bool minimal);
  /// Flags an existing interval as someone's minimum interval.
  void markMinimal(CandIdx i) { k_.minimalBit_[i.idx()] = 1; }
  void setMinimalInterval(PinIdx j, CandIdx i) { k_.minimalOf_[j.idx()] = i; }
  [[nodiscard]] CandIdx minimalIntervalOf(PinIdx j) const {
    return k_.minimalIntervalOf(j);
  }
  [[nodiscard]] std::size_t numPins() const { return k_.numPins(); }
  [[nodiscard]] std::size_t numIntervals() const { return k_.numIntervals(); }

  /// Detects the conflict sets, derives the transposed adjacencies and the
  /// profit columns, and hands over the kernel. A non-null `obs` receives
  /// the `conflict.sets` counter and the `pao.conflict` (scanline) and
  /// `pao.compile` (everything else) spans.
  /// CPR_COLD_OK: per-panel setup that allocates the CSR arrays by design;
  /// the hot solve loops only ever read the result.
  [[nodiscard]] PanelKernel finish(obs::Collector* obs = nullptr) &&
      CPR_COLD_OK;

 private:
  PanelKernel k_;
  ProfitModel model_;
};

/// Recomputes the objective and legality of `a` against `k`, independent of
/// the conflict sets: violations are counted by direct geometric overlap
/// between selected intervals of different nets on the same track. Used by
/// tests as ground truth and by the optimizer to vet every shipped panel.
/// CPR_COLD_OK: the audit is a correctness cross-check (seed validation,
/// test ground truth) that groups by track through a std::map by design.
[[nodiscard]] AssignmentAudit audit(const PanelKernel& k,
                                    const Assignment& a) CPR_COLD_OK;

}  // namespace cpr::core
