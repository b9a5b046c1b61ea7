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
/// extensions included, plus its vias. This is the net's one routing
/// outcome: what signoff checks, what metrics and digests are computed
/// from, and what visualization and DEF export draw. Empty when unrouted.
struct NetGeometry {
  std::vector<RouteSegment> segments;
  std::vector<ViaSite> vias;

  [[nodiscard]] bool routed() const { return !segments.empty(); }
  /// Grid edges of M2+M3 metal: maximal segments never overlap.
  [[nodiscard]] long wirelength() const {
    long wl = 0;
    for (const RouteSegment& s : segments) wl += s.span.hi - s.span.lo;
    return wl;
  }
};

/// Whole-design routing outcome. The paper's Table 2 metrics (Rout., Via#,
/// WL) are computed from this by `eval::summarize`; nets that routed but
/// violate design rules count as unrouted ("we treat those nets introducing
/// violations as unrouted nets", Section 5.2).
struct RoutingResult {
  /// Indexed like `Design::nets`: the geometry the signoff DRC checked,
  /// and per net 1 when it found a rule violation (`DrcReport::dirty`).
  std::vector<NetGeometry> geometry;
  std::vector<char> dirty;
  double seconds = 0.0;  ///< wall-clock routing time
  /// Run instrumentation: `route.*` / `drc.*` counters, stage timers, and
  /// the per-iteration `rrr.iter` negotiation series.
  obs::Collector stats;

  /// Routed and free of rule violations: the nets Table 2 counts routed.
  [[nodiscard]] bool clean(std::size_t net) const {
    return geometry[net].routed() && dirty[net] == 0;
  }

  // Thin accessors over the canonical counters (kept for call sites that
  // predate the obs subsystem).
  /// Grid nodes occupied by more than one net after the independent routing
  /// stage — the paper's Fig. 7(b) metric.
  [[nodiscard]] long congestedGridsBeforeRrr() const {
    return stats.counter(obs::names::kRouteCongestedPreRrr);
  }
  /// Total rule violations found at signoff.
  [[nodiscard]] long drcViolations() const {
    return stats.counter(obs::names::kDrcViolations);
  }
};

/// FNV-1a over every net's routed/clean/wirelength/via-count outcome, read
/// from the geometry and dirty flags: the cheap determinism witness shared
/// by the thread-sweep bench, the routing service, and the chaos tests.
/// Segment and via positions are not hashed.
[[nodiscard]] std::uint64_t resultDigest(const RoutingResult& r);

}  // namespace cpr::route
