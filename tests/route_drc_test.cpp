#include <gtest/gtest.h>

#include <vector>

#include "obs/names.h"
#include "db/layer.h"
#include "route/drc.h"
#include "route/grid.h"

namespace cpr::route {
namespace {

/// Committed geometry, as signoff sees it: line-end extensions are already
/// part of every segment.
RouteSegment m2(Coord track, Coord lo, Coord hi) {
  return RouteSegment{false, track, geom::Interval{lo, hi}};
}
RouteSegment m3(Coord column, Coord lo, Coord hi) {
  return RouteSegment{true, column, geom::Interval{lo, hi}};
}
NetGeometry wires(std::vector<RouteSegment> segments) {
  return NetGeometry{std::move(segments), {}};
}
NetGeometry vias(std::vector<ViaSite> sites) {
  return NetGeometry{{}, std::move(sites)};
}

TEST(Drc, CleanWhenFarApart) {
  const std::vector<NetGeometry> nets{wires({m2(5, 0, 2)}),
                                      wires({m2(5, 10, 11)})};
  const DrcReport r = checkDesignRules(nets);
  EXPECT_EQ(r.violations, 0);
  EXPECT_FALSE(r.dirty[0]);
  EXPECT_FALSE(r.dirty[1]);
}

TEST(Drc, SameTrackLineEndsTooClose) {
  // Extended runs sharing column 2: the line ends collide.
  const std::vector<NetGeometry> nets{wires({m2(5, 0, 2)}),
                                      wires({m2(5, 2, 5)})};
  const DrcReport r = checkDesignRules(nets);
  EXPECT_GT(r.violations, 0);
  EXPECT_TRUE(r.dirty[0]);
  EXPECT_TRUE(r.dirty[1]);
}

TEST(Drc, AbuttingExtendedRunsAreLegal) {
  const std::vector<NetGeometry> nets{wires({m2(5, 0, 2)}),
                                      wires({m2(5, 3, 6)})};
  EXPECT_EQ(checkDesignRules(nets).violations, 0);
}

TEST(Drc, AdjacentTracksDoNotInteract) {
  // Same columns, neighbouring tracks: fine in unidirectional routing.
  const std::vector<NetGeometry> nets{wires({m2(5, 0, 2)}),
                                      wires({m2(6, 0, 2)})};
  EXPECT_EQ(checkDesignRules(nets).violations, 0);
}

TEST(Drc, M3ColumnsCheckedToo) {
  const std::vector<NetGeometry> nets{wires({m3(7, 0, 2)}),
                                      wires({m3(7, 2, 5)})};
  EXPECT_GT(checkDesignRules(nets).violations, 0);
}

TEST(Drc, M2AndM3DoNotInteract) {
  // Track 7 of M2 and column 7 of M3 are different routing lines.
  const std::vector<NetGeometry> nets{wires({m2(7, 0, 2)}),
                                      wires({m3(7, 0, 2)})};
  EXPECT_EQ(checkDesignRules(nets).violations, 0);
}

TEST(Drc, SameNetRunsNeverViolate) {
  const std::vector<NetGeometry> nets{wires({m2(5, 0, 2), m2(5, 2, 5)})};
  EXPECT_EQ(checkDesignRules(nets).violations, 0);
}

TEST(Drc, ViaSpacingSameTrackSameLevel) {
  std::vector<NetGeometry> nets{vias({{10, 5, 2}}), vias({{11, 5, 2}})};
  EXPECT_GT(checkDesignRules(nets).violations, 0);
  nets = {vias({{10, 5, 2}}), vias({{12, 5, 2}})};  // two apart: legal
  EXPECT_EQ(checkDesignRules(nets).violations, 0);
}

TEST(Drc, ViaLevelsAreIndependent) {
  // V1 next to V2: different cut masks, no violation.
  std::vector<NetGeometry> nets{vias({{10, 5, 1}}), vias({{11, 5, 2}})};
  EXPECT_EQ(checkDesignRules(nets).violations, 0);
  // Same level, same site, different nets: violation.
  nets = {vias({{10, 5, 1}}), vias({{10, 5, 1}})};
  EXPECT_GT(checkDesignRules(nets).violations, 0);
}

TEST(Drc, ViaAdjacentTracksLegal) {
  const std::vector<NetGeometry> nets{vias({{10, 5, 2}}), vias({{10, 6, 2}})};
  EXPECT_EQ(checkDesignRules(nets).violations, 0);
}

TEST(Drc, SameNetViasNeverViolate) {
  const std::vector<NetGeometry> nets{vias({{10, 5, 2}, {11, 5, 2}})};
  EXPECT_EQ(checkDesignRules(nets).violations, 0);
}

TEST(Drc, ViaSpacingFlagsExactlyTheSitesTheRouterPrices) {
  // On an otherwise empty grid, a second net's same-level via violates the
  // spacing rule exactly where the router charges the forbidden-via cost.
  const db::Design empty("vias", 20, 2, 10);
  constexpr Coord kX = 10;
  constexpr Coord kY = 10;
  RoutingGrid grid(empty, nullptr);
  grid.addVia(kX, kY, /*net=*/0);
  long priced = 0;
  for (const std::uint8_t level : {std::uint8_t{1}, std::uint8_t{2}}) {
    for (Coord y = 0; y < grid.height(); ++y) {
      for (Coord x = 0; x < grid.width(); ++x) {
        const std::vector<NetGeometry> nets{
            vias({{kX, kY, level}}), vias({{x, y, level}})};
        const DrcReport r = checkDesignRules(nets);
        const bool forbidden = grid.viaForbidden(x, y, /*net=*/1);
        EXPECT_EQ(r.violations > 0, forbidden) << x << "," << y;
        EXPECT_EQ(r.dirty[1] != 0, forbidden) << x << "," << y;
        priced += forbidden ? 1 : 0;
      }
    }
  }
  EXPECT_EQ(priced, 2 * (2 * db::kViaSpacing + 1));
}

TEST(Drc, UnroutedNetsAreEmptyAndNeverDirty) {
  const std::vector<NetGeometry> nets{wires({m2(5, 0, 2)}), NetGeometry{},
                                      wires({m2(5, 2, 5)})};
  const DrcReport r = checkDesignRules(nets);
  ASSERT_EQ(r.dirty.size(), 3U);
  EXPECT_TRUE(r.dirty[0]);
  EXPECT_FALSE(r.dirty[1]);
  EXPECT_TRUE(r.dirty[2]);
}

TEST(Drc, CountersAreCategorized) {
  // One line-end pair and one via pair; net 2 is clean.
  const std::vector<NetGeometry> nets{
      NetGeometry{{m2(5, 0, 2)}, {{20, 9, 2}}},
      NetGeometry{{m2(5, 2, 5)}, {{21, 9, 2}}},
      wires({m2(8, 0, 4)})};
  obs::Collector obs;
  const DrcReport r = checkDesignRules(nets, &obs);
  EXPECT_EQ(r.violations, 2);
  EXPECT_EQ(obs.counter(obs::names::kDrcViolations), 2);
  EXPECT_EQ(obs.counter(obs::names::kDrcLineEnd), 1);
  EXPECT_EQ(obs.counter(obs::names::kDrcViaSpacing), 1);
  EXPECT_EQ(obs.counter(obs::names::kDrcDirtyNets), 2);
}

}  // namespace
}  // namespace cpr::route
