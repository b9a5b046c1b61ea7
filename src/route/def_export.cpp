#include "route/def_export.h"

#include <ostream>

namespace cpr::route {

void writeRoutedDef(const db::Design& design,
                    const std::vector<NetGeometry>& geometry,
                    std::ostream& os) {
  os << "VERSION 5.8 ;\n";
  os << "DESIGN " << design.name() << " ;\n";
  os << "UNITS DISTANCE MICRONS 1000 ;\n";
  os << "DIEAREA ( 0 0 ) ( " << design.width() << ' ' << design.gridHeight()
     << " ) ;\n";
  os << "ROWS " << design.numRows() << ' ' << design.tracksPerRow() << " ;\n";
  os << "NETS " << design.nets().size() << " ;\n";
  for (std::size_t n = 0; n < design.nets().size(); ++n) {
    const db::Net& net = design.nets()[n];
    os << "  - " << net.name << "\n";
    for (db::Index p : net.pins) {
      const db::Pin& pin = design.pin(p);
      os << "    ( PIN " << pin.name << " LAYER M1 RECT ( " << pin.shape.x.lo
         << ' ' << pin.shape.y.lo << " ) ( " << pin.shape.x.hi << ' '
         << pin.shape.y.hi << " ) )\n";
    }
    if (n < geometry.size() && !geometry[n].segments.empty()) {
      os << "    + ROUTED";
      bool first = true;
      for (const RouteSegment& s : geometry[n].segments) {
        os << (first ? " " : "\n      NEW ");
        first = false;
        if (s.m3) {
          os << "M3 ( " << s.lane << ' ' << s.span.lo << " ) ( " << s.lane
             << ' ' << s.span.hi << " )";
        } else {
          os << "M2 ( " << s.span.lo << ' ' << s.lane << " ) ( " << s.span.hi
             << ' ' << s.lane << " )";
        }
      }
      for (const ViaSite& v : geometry[n].vias) {
        os << "\n      NEW " << (v.level == 1 ? "M1" : "M2") << " ( " << v.x
           << ' ' << v.y << " ) VIA V" << static_cast<int>(v.level);
      }
    }
    os << "\n  ;\n";
  }
  os << "END NETS\n";
  os << "END DESIGN\n";
}

}  // namespace cpr::route
