/// \file cpr.h
/// CPR — the Concurrent Pin access Router (paper Section 4).
///
/// Flow: concurrent pin access optimization on the M2 layer (LR by default,
/// exact ILP optionally) produces one conflict-free interval per pin; the
/// intervals enter the negotiation-congestion router as partial routes,
/// with other nets' pins and intervals treated as blockages; line-end
/// extension and DRC signoff follow.
#pragma once

#include <optional>
#include <string_view>

#include "core/optimizer.h"
#include "db/design.h"
#include "route/negotiation_router.h"

namespace cpr::route {

/// The three routing schemes Table 2 compares.
enum class Scheme {
  Cpr,    ///< pin access optimization, then negotiation routing (this paper)
  NoPao,  ///< negotiation routing without pin access optimization [21]
  Seq,    ///< sequential pin access planning (PARR [12])
};

/// The one name table for `Scheme` (cpr|nopao|seq), as spelled by the
/// `--scheme` flags and the protocol's `scheme` field; others: nullopt.
[[nodiscard]] std::optional<Scheme> schemeFromName(std::string_view name);
[[nodiscard]] std::string_view schemeName(Scheme scheme);

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
  double pinAccessSeconds = 0.0;  ///< "cpu" adds it to routing.seconds (5.2)
};

[[nodiscard]] CprResult routeCpr(const db::Design& design,
                                 const CprOptions& opts = {});

/// The one scheme dispatch: Cpr is `routeCpr`, NoPao is `routeNegotiated`
/// without a plan under `opts.routing`, Seq is `routeSequential` under
/// `opts.routing.deadline`. The plan is empty for NoPao and Seq.
[[nodiscard]] CprResult routeScheme(const db::Design& design, Scheme scheme,
                                    const CprOptions& opts = {});

}  // namespace cpr::route
