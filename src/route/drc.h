/// \file drc.h
/// Unidirectional / SADP manufacturing rule checking (paper Section 4).
///
/// The paper performs line-end extensions and treats rule-violating nets as
/// unrouted at evaluation time. The router commits every extension as metal
/// (`RouteEngine::commitPlan`), so the checker reads the shipped geometry as
/// is and applies no extension of its own. The rules are the constraints
/// "listed in [12]", with their values from db/layer.h: (a) segments of
/// different nets on the same track or column must not share a grid
/// (line-end gap 0: the extensions already sit in the runs), and (b)
/// same-level vias of different nets on one track must be more than
/// `db::kViaSpacing` grids apart. Both are same-lane checks: unidirectional
/// SADP cut conflicts happen between features on one routing line, whose
/// cuts share a mask. Violations mark both offending nets dirty.
#pragma once

#include <span>
#include <vector>

#include "obs/collector.h"
#include "route/result.h"

namespace cpr::route {

struct DrcReport {
  long violations = 0;
  std::vector<char> dirty;  ///< per net: 1 when any rule is violated
};

/// Checks the rules against committed geometry, indexed like
/// `Design::nets` (unrouted nets have empty geometry). A non-null `obs`
/// receives the categorized `drc.*` counters (total, line-end, via-spacing,
/// dirty nets); drivers pass it only on the signoff call, so the sequential
/// router's legalization sweeps do not inflate the run report.
[[nodiscard]] DrcReport checkDesignRules(std::span<const NetGeometry> nets,
                                         obs::Collector* obs = nullptr);

}  // namespace cpr::route
