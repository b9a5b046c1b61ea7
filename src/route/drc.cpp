#include "route/drc.h"

#include <algorithm>
#include <array>
#include <compare>

#include "db/layer.h"
#include "obs/names.h"

namespace cpr::route {

namespace {

/// One feature on a routing line: a metal segment, or a via as a one-grid
/// segment on its track. Sorting orders features by lane, then position.
struct Feature {
  Coord lane;
  Coord lo;
  Coord hi;
  Index net;

  friend auto operator<=>(const Feature&, const Feature&) = default;
};

/// Sorts one layer's features and flags every diff-net pair on the same lane
/// whose gap is at most `spacing` (overlapping features have a negative
/// gap). Returns the number of violating pairs.
long sweep(std::vector<Feature>& features, Coord spacing, DrcReport& report) {
  std::sort(features.begin(), features.end());
  long found = 0;
  for (std::size_t i = 0; i < features.size(); ++i) {
    const Feature& a = features[i];
    for (std::size_t j = i + 1; j < features.size(); ++j) {
      const Feature& b = features[j];
      if (b.lane != a.lane || b.lo > a.hi + spacing) break;
      if (a.net == b.net) continue;
      ++found;
      report.dirty[static_cast<std::size_t>(a.net)] = 1;
      report.dirty[static_cast<std::size_t>(b.net)] = 1;
    }
  }
  return found;
}

}  // namespace

DrcReport checkDesignRules(std::span<const NetGeometry> nets,
                           obs::Collector* obs) {
  DrcReport report;
  report.dirty.assign(nets.size(), 0);

  // Line-end rules on M2 tracks and M3 columns; via spacing per via level on
  // the via's track (two cuts too close on one line's cut mask).
  enum Layer : std::size_t { kM2, kM3, kV1, kV2, kLayers };
  std::array<std::vector<Feature>, kLayers> layers;
  for (std::size_t n = 0; n < nets.size(); ++n) {
    const auto net = static_cast<Index>(n);
    for (const RouteSegment& s : nets[n].segments)
      layers[s.m3 ? kM3 : kM2].push_back({s.lane, s.span.lo, s.span.hi, net});
    for (const ViaSite& v : nets[n].vias)
      layers[v.level == 1 ? kV1 : kV2].push_back({v.y, v.x, v.x, net});
  }
  // Line ends: the committed extensions leave no further gap to keep.
  constexpr Coord kLineEndGap = 0;
  const long lineEnd = sweep(layers[kM2], kLineEndGap, report) +
                       sweep(layers[kM3], kLineEndGap, report);
  const long viaSpacing = sweep(layers[kV1], db::kViaSpacing, report) +
                          sweep(layers[kV2], db::kViaSpacing, report);
  report.violations = lineEnd + viaSpacing;

  if (obs) {
    obs->add(obs::names::kDrcViolations, report.violations);
    obs->add(obs::names::kDrcLineEnd, lineEnd);
    obs->add(obs::names::kDrcViaSpacing, viaSpacing);
    long dirtyNets = 0;
    for (const char d : report.dirty) dirtyNets += d ? 1 : 0;
    obs->add(obs::names::kDrcDirtyNets, dirtyNets);
  }
  return report;
}

}  // namespace cpr::route
