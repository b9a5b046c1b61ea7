#include "route/def_export.h"

#include <ostream>

#include "lefdef/def_io.h"

namespace cpr::route {

void writeRoutedDef(const db::Design& design,
                    const std::vector<NetGeometry>& geometry,
                    std::ostream& os) {
  lefdef::writeDef(design, os, [&](db::Index net, std::ostream& out) {
    const auto n = static_cast<std::size_t>(net);
    if (n >= geometry.size() || geometry[n].segments.empty()) return;
    out << "    + ROUTED";
    bool first = true;
    for (const RouteSegment& s : geometry[n].segments) {
      out << (first ? " " : "\n      NEW ");
      first = false;
      if (s.m3) {
        out << "M3 ( " << s.lane << ' ' << s.span.lo << " ) ( " << s.lane
            << ' ' << s.span.hi << " )";
      } else {
        out << "M2 ( " << s.span.lo << ' ' << s.lane << " ) ( " << s.span.hi
            << ' ' << s.lane << " )";
      }
    }
    for (const ViaSite& v : geometry[n].vias) {
      out << "\n      NEW " << (v.level == 1 ? "M1" : "M2") << " ( " << v.x
          << ' ' << v.y << " ) VIA V" << static_cast<int>(v.level);
    }
    out << '\n';
  });
}

}  // namespace cpr::route
