/// \file cpr.h
/// CPR — the Concurrent Pin access Router (paper Section 4).
///
/// Flow: concurrent pin access optimization on the M2 layer (LR by default,
/// exact ILP optionally) produces one conflict-free interval per pin; the
/// intervals enter the negotiation-congestion router as partial routes,
/// with other nets' pins and intervals treated as blockages; line-end
/// extension and DRC signoff follow.
#pragma once

#include "core/optimizer.h"
#include "db/design.h"
#include "route/negotiation_router.h"

namespace cpr::route {

struct CprOptions {
  CprOptions() {
    // Footnote 1: cap pin access intervals with an estimated M2 routing box
    // instead of the full net bounding box — fewer candidates, same quality.
    pinAccess.gen.maxExtent = 32;
    // Panels that stall early are repaired by greedy conflict removal anyway.
    pinAccess.solve.lr.stallLimit = 12;
  }

  core::OptimizerOptions pinAccess;  ///< Method::Lr (paper default) or Ilp
  NegotiationOptions routing;
};

struct CprResult {
  core::PinAccessPlan plan;
  RoutingResult routing;
  double pinAccessSeconds = 0.0;
  /// Total runtime: pin access optimization + routing (the paper's "cpu"
  /// column includes both, Section 5.2).
  [[nodiscard]] double totalSeconds() const {
    return pinAccessSeconds + routing.seconds;
  }
};

[[nodiscard]] CprResult routeCpr(const db::Design& design,
                                 const CprOptions& opts = {});

}  // namespace cpr::route
