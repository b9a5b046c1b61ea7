/// \file drc.h
/// Unidirectional / SADP manufacturing rule checking (paper Section 4).
///
/// The paper performs line-end extensions and treats rule-violating nets as
/// unrouted at evaluation time. The router commits every extension as metal
/// (`RouteEngine::commitPlan`), so the checker reads the shipped geometry as
/// is and applies no extension of its own. The rule set is the parameterized
/// equivalent of the constraints "listed in [12]": (a) segments of different
/// nets on the same track or column must not overlap and must keep
/// `minLineEndSpacing` grids between line ends, and (b) same-level vias of
/// different nets on one track must be more than `minViaSpacing` grids
/// apart. Violations mark both offending nets dirty.
#pragma once

#include <span>
#include <vector>

#include "obs/collector.h"
#include "route/result.h"

namespace cpr::route {

/// Rules live per track/column: unidirectional SADP cut conflicts happen
/// between features on the same routing line (each line's cuts share a
/// mask), so both checks below are same-lane checks.
struct DrcRules {
  Coord minLineEndSpacing = 0;  ///< required gap between diff-net segments
  Coord minViaSpacing = 1;      ///< same-lane same-level diff-net vias need |dx| > this
};

struct DrcReport {
  long violations = 0;
  std::vector<char> dirty;  ///< per net: 1 when any rule is violated
};

/// Checks the rule set against committed geometry, indexed like
/// `Design::nets` (unrouted nets have empty geometry). A non-null `obs`
/// receives the categorized `drc.*` counters (total, line-end, via-spacing,
/// dirty nets); drivers pass it only on the signoff call so intermediate
/// repair sweeps do not inflate the run report.
[[nodiscard]] DrcReport checkDesignRules(std::span<const NetGeometry> nets,
                                         const DrcRules& rules = {},
                                         obs::Collector* obs = nullptr);

}  // namespace cpr::route
