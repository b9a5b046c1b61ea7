/// \file negotiation_router.h
/// Negotiation-congestion routing (PathFinder [22] style, as in [21]).
///
/// Two-stage scheme (paper Section 5.2): an *independent routing stage*
/// routes every net ignoring sharing (the congested-grid count after this
/// stage is the Fig. 7(b) metric), then *rip-up & reroute* iterations add
/// history cost on congested grids and reroute the offending nets with a
/// growing present-sharing penalty until no grid is shared. Nets still
/// sharing a grid after RRR are dropped (left unrouted). There is no DRC
/// repair stage: every rule violation needs two nets on one grid once the
/// committed line-end extensions are counted (db/layer.h), so the output is
/// DRC-clean by construction, and the signoff DRC in `RouteEngine::signoff`
/// is the only one this driver runs.
///
/// With a `PinAccessPlan` this is the paper's CPR (intervals become partial
/// routes and other nets' intervals become blockages); with `plan == nullptr`
/// it is the "routing w/o pin access optimization" baseline [21].
///
/// Every net loop (the independent stage and each RRR iteration) runs
/// through a wave scheduler: nets whose influence boxes are disjoint
/// search concurrently against the immutable grid, then commit serially
/// in net-index order (see wave_scheduler.h and DESIGN.md §13).
/// The wave order is part of the algorithm, not of the execution: route
/// results are bit-identical for every `threads` value.
#pragma once

#include <algorithm>

#include "core/optimizer.h"
#include "db/design.h"
#include "route/result.h"
#include "support/deadline.h"

namespace cpr::route {

/// The negotiation's fixed parameters (window margin, stall window,
/// present/history schedule) are constants of the driver
/// (negotiation_router.cpp); these are the knobs callers set.
struct NegotiationOptions {
  /// Rip-up & reroute iteration cap, at most 255: a node's history counts
  /// the iterations in which it was shared, in 8 bits. `routeNegotiated`
  /// checks the bound (CPR_CHECK).
  int maxRrrIterations = 20;
  /// Worker threads for the wave-parallel net searches (0 = one per
  /// hardware thread, 1 = sequential). Pure throughput knob: the wave
  /// partition and commit order never depend on it, so route digests are
  /// identical for every value.
  int threads = 0;
  /// Wall-clock budget (unset = none). Checked between waves of the
  /// independent routing stage (and before its widened-window retries) and
  /// between rip-up & reroute iterations — signoff always runs, so an
  /// expired deadline still yields a complete, consistently reported result
  /// (`route.timeout` counts the loops cut short). Never checked mid-net,
  /// so nets are never half-routed.
  support::Deadline deadline;
};

/// Decides when rip-up & reroute has stopped making *material* progress.
///
/// Material means the congested-grid count dropped at least 2% (min 1)
/// below the baseline, and the baseline only ever moves on material
/// improvement. Moving it on every observation — the pre-fix behaviour —
/// silently tightened the baseline on sub-2% declines, so a negotiation
/// steadily improving at ~1% per iteration measured each step against the
/// previous one, never looked material, and was cut off mid-progress.
/// Against a fixed baseline those steps accumulate: a genuine 1%/iteration
/// decline re-arms the detector every couple of iterations, while a truly
/// slow drip (sub-0.5%/iteration at the default window of 4) still exhausts
/// the stall budget and exits.
class RrrStallDetector {
 public:
  /// `initialCongestion` seeds the baseline (the pre-RRR congested count);
  /// `stallIters` is the budget of consecutive non-material iterations
  /// (0 disables the detector: `shouldStop` is always false).
  RrrStallDetector(long initialCongestion, int stallIters)
      : baseline_(initialCongestion), stallIters_(stallIters) {}

  /// Feeds one iteration's congested-grid count. True when the stall budget
  /// is exhausted and the loop should exit.
  [[nodiscard]] bool shouldStop(long congestion) {
    if (congestion < baseline_ - std::max<long>(1, baseline_ / 50)) {
      baseline_ = congestion;
      stall_ = 0;
      return false;
    }
    return stallIters_ > 0 && ++stall_ >= stallIters_;
  }

  /// Last material congestion level (test hook).
  [[nodiscard]] long baseline() const { return baseline_; }

 private:
  long baseline_;
  int stallIters_;
  int stall_ = 0;
};

[[nodiscard]] RoutingResult routeNegotiated(const db::Design& design,
                                            const core::PinAccessPlan* plan,
                                            const NegotiationOptions& opts = {});

}  // namespace cpr::route
