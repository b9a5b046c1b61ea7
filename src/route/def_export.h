/// \file def_export.h
/// Routed-DEF writer: lefdef::writeDef's design serialization (blockages
/// included) with per-net `+ ROUTED` regular wiring statements carrying the
/// router's signed-off geometry, appended through writeDef's per-net tail.
///
/// This lives in `route` (not `lefdef`) because it consumes
/// `route::NetGeometry` — the lefdef layer sits below route in the
/// architecture manifest (tools/lint/layers.txt) and must not know about
/// routing results.
#pragma once

#include <iosfwd>
#include <vector>

#include "db/design.h"
#include "route/result.h"

namespace cpr::route {

/// Emits the design with per-net `+ ROUTED` statements (DEF 5.8 regular
/// wiring syntax: one `LAYER ( x y ) ( x y )` polyline point pair per
/// straight segment, plus `VIA` records). `geometry` is indexed like
/// `Design::nets` (`RoutingResult::geometry`).
void writeRoutedDef(const db::Design& design,
                    const std::vector<NetGeometry>& geometry,
                    std::ostream& os);

}  // namespace cpr::route
