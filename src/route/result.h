/// \file result.h
/// Routing outcome structures shared by all three routers.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/interval.h"
#include "geom/types.h"
#include "obs/collector.h"
#include "obs/names.h"

namespace cpr::route {

using geom::Coord;
using geom::Index;

/// Outcome for one net.
struct NetResult {
  bool routed = false;  ///< all pins connected
  bool clean = false;   ///< routed and free of design-rule violations
  long wirelength = 0;  ///< grid edges of committed metal (M2+M3)
  int vias = 0;         ///< V1 + V2 vias
};

/// One straight metal segment of a routed net (unidirectional: M2 segments
/// run along a track, M3 segments along a column).
struct RouteSegment {
  bool m3 = false;      ///< false: M2 (horizontal), true: M3 (vertical)
  Coord lane = 0;       ///< track (M2) or column (M3)
  geom::Interval span;  ///< column range (M2) or track range (M3)
};

/// One via of a routed net. Level 1 = V1 (M1 pin hookup), level 2 = V2
/// (M2-M3). The DRC's spacing rule applies between same-level vias of
/// different nets (different cut masks are independent).
struct ViaSite {
  Coord x = 0;
  Coord y = 0;
  std::uint8_t level = 2;
};

/// Full committed geometry of one net: its maximal M2/M3 segments, line-end
/// extensions included, plus its vias. This is what signoff checks and what
/// visualization and DEF export draw; empty when the net is unrouted.
struct NetGeometry {
  std::vector<RouteSegment> segments;
  std::vector<ViaSite> vias;
};

/// Whole-design routing outcome. The paper's Table 2 metrics (Rout., Via#,
/// WL) are computed from this by `eval::summarize`; nets that routed but
/// violate design rules count as unrouted ("we treat those nets introducing
/// violations as unrouted nets", Section 5.2).
struct RoutingResult {
  std::vector<NetResult> nets;
  /// Per-net committed geometry, indexed like `nets`: the geometry the
  /// signoff DRC checked.
  std::vector<NetGeometry> geometry;
  double seconds = 0.0;  ///< wall-clock routing time
  /// Run instrumentation: `route.*` / `drc.*` counters, stage timers, and
  /// the per-iteration `rrr.iter` negotiation series.
  obs::Collector stats;

  // Thin accessors over the canonical counters (kept for call sites that
  // predate the obs subsystem).
  /// Grid nodes occupied by more than one net after the independent routing
  /// stage — the paper's Fig. 7(b) metric.
  [[nodiscard]] long congestedGridsBeforeRrr() const {
    return stats.counter(obs::names::kRouteCongestedPreRrr);
  }
  /// Negotiation rip-up & reroute rounds used (routing passes for the
  /// sequential driver).
  [[nodiscard]] int rrrIterations() const {
    return static_cast<int>(stats.counter(obs::names::kRouteRrrIterations));
  }
  /// Total rule violations found at signoff.
  [[nodiscard]] long drcViolations() const {
    return stats.counter(obs::names::kDrcViolations);
  }
};

/// FNV-1a over every net's routed/clean/wirelength/via outcome: the cheap
/// determinism witness shared by the thread-sweep bench, the routing
/// service, and the chaos tests. Two results digest equal iff every net
/// reached the same outcome; geometry is not hashed.
[[nodiscard]] std::uint64_t resultDigest(const RoutingResult& r);

}  // namespace cpr::route
