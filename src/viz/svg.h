/// \file svg.h
/// SVG rendering of designs, pin access plans, and routed geometry.
///
/// Produces a self-contained SVG: die outline, per-row panel shading, M2/M3
/// blockages, M1 pins (labelled on small designs), assigned pin access
/// intervals, routed segments and vias. Intended for debugging pin access interference and
/// for documentation figures (the paper's Figs. 1-5 are exactly this kind
/// of picture).
#pragma once

#include <iosfwd>
#include <string>

#include "core/optimizer.h"
#include "db/design.h"
#include "route/result.h"

namespace cpr::viz {

/// Renders the design (pins, blockages, rows). `plan` adds the assigned pin
/// access intervals; `geometry` (indexed like Design::nets) adds routed
/// segments and vias. Either may be null. Pins are labelled with their
/// names on designs of at most 400 pins; larger designs draw them unlabelled.
void renderSvg(const db::Design& design, const core::PinAccessPlan* plan,
               const std::vector<route::NetGeometry>* geometry,
               std::ostream& os);

/// Convenience wrapper writing to a file (throws std::runtime_error on I/O
/// failure).
void saveSvg(const db::Design& design, const core::PinAccessPlan* plan,
             const std::vector<route::NetGeometry>* geometry,
             const std::string& path);

}  // namespace cpr::viz
