#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/optimizer.h"
#include "gen/generator.h"
#include "route/engine.h"

namespace cpr::route {
namespace {

using db::Design;
using geom::Interval;
using geom::Rect;

Design twoNetDesign() {
  Design d("eng", 30, 1, 10);
  const db::Index a = d.addNet("A");
  const db::Index b = d.addNet("B");
  d.addPin("a1", a, Rect{Interval::point(4), Interval{2, 4}});
  d.addPin("a2", a, Rect{Interval::point(20), Interval{2, 4}});
  d.addPin("b1", b, Rect{Interval::point(9), Interval{6, 8}});
  d.addPin("b2", b, Rect{Interval::point(25), Interval{6, 8}});
  return d;
}

TEST(RouteEngine, RoutesSimpleNet) {
  MazeScratch scratch;
  const Design d = twoNetDesign();
  RouteEngine eng(d, nullptr);
  ASSERT_TRUE(eng.routeNet(0, {}, scratch));
  const auto& st = eng.state(0);
  EXPECT_TRUE(st.routed());
  EXPECT_FALSE(st.nodes.empty());
  // At least the pin-to-pin distance.
  EXPECT_GE(eng.geometry()[0].wirelength(), 16);
  // Both pins hooked up: at least 2 V1 vias.
  int v1 = 0;
  for (const ViaSite& v : st.vias) v1 += v.level == 1 ? 1 : 0;
  EXPECT_EQ(v1, 2);
}

TEST(RouteEngine, CommitsOccupancyAndRipsCleanly) {
  MazeScratch scratch;
  const Design d = twoNetDesign();
  RouteEngine eng(d, nullptr);
  RoutingGrid& g = eng.grid();
  ASSERT_TRUE(eng.routeNet(0, {}, scratch));
  long occupied = 0;
  for (int id = 0; id < g.numNodes(); ++id) occupied += g.occupancy(id);
  EXPECT_EQ(occupied, static_cast<long>(eng.state(0).nodes.size()));
  eng.ripNet(0);
  occupied = 0;
  for (int id = 0; id < g.numNodes(); ++id) occupied += g.occupancy(id);
  EXPECT_EQ(occupied, 0);
  EXPECT_FALSE(eng.state(0).routed());
}

TEST(RouteEngine, LineEndExtensionsCommitted) {
  MazeScratch scratch;
  const Design d = twoNetDesign();
  RouteEngine eng(d, nullptr);
  ASSERT_TRUE(eng.routeNet(0, {}, scratch));
  // The M2 runs must be extended: for every maximal M2 run of the committed
  // metal there is no way to tell extension cells apart, but the run through
  // pin a1 (x=4) must reach beyond the leftmost path column by one.
  const RoutingGrid& g = eng.grid();
  geom::Coord minX = 1000;
  for (int id : eng.state(0).nodes) {
    const Node n = g.node(id);
    if (n.layer == RLayer::M2) minX = std::min(minX, n.x);
  }
  EXPECT_LE(minX, 3);  // at least one column left of pin a1's column
}

TEST(RouteEngine, PlanIntervalsBecomePartialRoutes) {
  MazeScratch scratch;
  const Design d = twoNetDesign();
  core::PinAccessPlan plan;
  plan.routes.assign(d.pins().size(), core::PinRoute{});
  plan.routes[0] = core::PinRoute{3, Interval{2, 12}};   // a1
  plan.routes[1] = core::PinRoute{3, Interval{14, 22}};  // a2
  RouteEngine eng(d, &plan);
  ASSERT_TRUE(eng.routeNet(0, {}, scratch));
  const auto& st = eng.state(0);
  // Metal on track 3 covering the pins' columns must be present.
  const RoutingGrid& g = eng.grid();
  bool onTrack3 = false;
  for (int id : st.nodes) {
    const Node n = g.node(id);
    if (n.layer == RLayer::M2 && n.y == 3 && n.x >= 2 && n.x <= 22)
      onTrack3 = true;
  }
  EXPECT_TRUE(onTrack3);
}

TEST(RouteEngine, IntervalTrimDropsUnusedTail) {
  MazeScratch scratch;
  const Design d = twoNetDesign();
  core::PinAccessPlan plan;
  plan.routes.assign(d.pins().size(), core::PinRoute{});
  // a1's interval stretches far left of anything useful.
  plan.routes[0] = core::PinRoute{3, Interval{0, 12}};
  plan.routes[1] = core::PinRoute{3, Interval{14, 22}};
  RouteEngine eng(d, &plan);
  ASSERT_TRUE(eng.routeNet(0, {}, scratch));
  const RoutingGrid& g = eng.grid();
  // Columns 0..2 of track 3 are an unused tail (pin is at 4, connector goes
  // right); after trimming plus at most one extension cell nothing should
  // remain at column 0 or 1.
  int tail = 0;
  for (int id : eng.state(0).nodes) {
    const Node n = g.node(id);
    if (n.layer == RLayer::M2 && n.y == 3 && n.x <= 1) ++tail;
  }
  EXPECT_EQ(tail, 0);
}

TEST(RouteEngine, FailsGracefullyWhenWalledIn) {
  MazeScratch scratch;
  Design d("boxed", 30, 1, 10);
  const db::Index a = d.addNet("A");
  d.addPin("a1", a, Rect{Interval::point(4), Interval{4, 4}});
  d.addPin("a2", a, Rect{Interval::point(20), Interval{4, 4}});
  // Wall every layer between the pins.
  d.addBlockage(db::Layer::M2, Rect{Interval{10, 11}, Interval{0, 9}});
  d.addBlockage(db::Layer::M3, Rect{Interval{10, 11}, Interval{0, 9}});
  RouteEngine eng(d, nullptr);
  EXPECT_FALSE(eng.routeNet(0, {}, scratch));
  EXPECT_FALSE(eng.state(0).routed());
  // Nothing committed on failure.
  const RoutingGrid& g = eng.grid();
  for (int id = 0; id < g.numNodes(); ++id) EXPECT_EQ(g.occupancy(id), 0);
}

TEST(RouteEngine, WirelengthCountsAdjacentPairs) {
  MazeScratch scratch;
  Design d("wl", 30, 1, 10);
  const db::Index a = d.addNet("A");
  d.addPin("a1", a, Rect{Interval::point(5), Interval{4, 4}});
  d.addPin("a2", a, Rect{Interval::point(10), Interval{4, 4}});
  RouteEngine eng(d, nullptr);
  ASSERT_TRUE(eng.routeNet(0, {}, scratch));
  // Straight run 5..10 on track 4 plus one extension column at each end:
  // 4..11, 8 nodes, 7 edges.
  EXPECT_EQ(eng.geometry()[0].wirelength(), 5 + 2 * db::kLineEndExtension);
}

/// Reference wirelength of a committed node set: for every node, every
/// later node within `width()` ids that is its same-layer neighbour.
long pairwiseWirelength(const std::vector<int>& nodes, const RoutingGrid& g) {
  long wl = 0;
  const int plane = g.planeSize();
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    const int a = nodes[i];
    for (std::size_t j = i + 1; j < nodes.size(); ++j) {
      const int b = nodes[j];
      if (b - a > g.width()) break;
      if ((a < plane) != (b < plane)) continue;
      if (a < plane) {
        if (b == a + 1 && (a % plane) / g.width() == (b % plane) / g.width())
          ++wl;
      } else if (b == a + g.width()) {
        ++wl;
      }
    }
  }
  return wl;
}

TEST(RouteEngine, GeometryWirelengthMatchesPairwiseScanOfCommittedNodes) {
  std::mt19937 rng(7);
  MazeScratch scratch;
  long routedNets = 0;
  for (int trial = 0; trial < 16; ++trial) {
    // Random small designs, every net committed in turn with sharing
    // allowed: runs cross rows, stack M2 over M3 and stop at the die edge.
    gen::GenOptions o;
    o.seed = rng();
    o.width = std::uniform_int_distribution<geom::Coord>(24, 64)(rng);
    o.numRows = 2;
    o.pinDensity = 0.2;
    o.maxNetSpan = 16;
    const Design d = gen::generate(o);
    RouteEngine eng(d, nullptr);
    for (std::size_t n = 0; n < d.nets().size(); ++n)
      static_cast<void>(eng.routeNet(static_cast<db::Index>(n), {}, scratch));
    const std::vector<NetGeometry> geometry = eng.geometry();
    for (std::size_t n = 0; n < d.nets().size(); ++n) {
      const RouteEngine::NetState& st = eng.state(static_cast<db::Index>(n));
      EXPECT_EQ(geometry[n].routed(), st.routed());
      EXPECT_EQ(geometry[n].wirelength(),
                pairwiseWirelength(st.nodes, eng.grid()))
          << "trial " << trial << " net " << n;
      routedNets += st.routed() ? 1 : 0;
    }
  }
  EXPECT_GT(routedNets, 16);
}

}  // namespace
}  // namespace cpr::route
