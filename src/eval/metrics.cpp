#include "eval/metrics.h"

#include <cstdio>

namespace cpr::eval {

Metrics summarize(const db::Design& design,
                  const route::RoutingResult& result, double extraSeconds) {
  Metrics m;
  m.totalNets = static_cast<int>(design.nets().size());
  for (std::size_t n = 0; n < result.geometry.size(); ++n) {
    if (result.clean(n)) {
      ++m.routedClean;
      m.vias += static_cast<long>(result.geometry[n].vias.size());
      m.wirelength += result.geometry[n].wirelength();
    } else {
      m.wirelength += design.netBox(static_cast<db::Index>(n)).halfPerimeter();
    }
  }
  m.routability =
      m.totalNets == 0 ? 0.0 : 100.0 * m.routedClean / m.totalNets;
  m.seconds = result.seconds + extraSeconds;
  m.congestedGridsBeforeRrr = result.congestedGridsBeforeRrr();
  m.drcViolations = result.drcViolations();
  return m;
}

std::string tableHeader() {
  return "design      Rout.(%)     Via#        WL    cpu(s)";
}

std::string tableRow(const std::string& design, const Metrics& m) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%-10s %8.2f %8ld %9ld %9.2f",
                design.c_str(), m.routability, m.vias, m.wirelength,
                m.seconds);
  return buf;
}

}  // namespace cpr::eval
