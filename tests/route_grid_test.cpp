#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <vector>

#include "route/grid.h"

namespace cpr::route {
namespace {

using db::Design;
using db::Layer;
using geom::Coord;
using geom::Interval;
using geom::Rect;

Design makeDesign() {
  Design d("g", 20, 2, 10);
  const db::Index a = d.addNet("A");
  const db::Index b = d.addNet("B");
  d.addPin("a1", a, Rect{Interval::point(3), Interval{2, 4}});
  d.addPin("a2", a, Rect{Interval::point(12), Interval{2, 4}});
  d.addPin("b1", b, Rect{Interval::point(7), Interval{13, 15}});
  d.addPin("b2", b, Rect{Interval::point(16), Interval{13, 15}});
  d.addBlockage(Layer::M2, Rect{Interval{0, 5}, Interval{8, 8}});
  d.addBlockage(Layer::M3, Rect{Interval{9, 9}, Interval{0, 19}});
  return d;
}

TEST(RoutingGrid, NodePackingRoundTrips) {
  const Design d = makeDesign();
  RoutingGrid g(d, nullptr);
  EXPECT_EQ(g.width(), 20);
  EXPECT_EQ(g.height(), 20);
  for (const Node n : {Node{RLayer::M2, 0, 0}, Node{RLayer::M2, 19, 19},
                       Node{RLayer::M3, 7, 13}, Node{RLayer::M3, 19, 0}}) {
    EXPECT_EQ(g.node(g.id(n)), n);
  }
  EXPECT_EQ(g.numNodes(), 2 * 20 * 20);
}

TEST(RoutingGrid, BlockagesPerLayer) {
  const Design d = makeDesign();
  RoutingGrid g(d, nullptr);
  EXPECT_TRUE(g.blocked(g.id(Node{RLayer::M2, 3, 8})));
  EXPECT_FALSE(g.blocked(g.id(Node{RLayer::M3, 3, 8})));
  EXPECT_TRUE(g.blocked(g.id(Node{RLayer::M3, 9, 11})));
  EXPECT_FALSE(g.blocked(g.id(Node{RLayer::M2, 9, 11})));
}

TEST(RoutingGrid, PinProjectionRecordsOwningNet) {
  const Design d = makeDesign();
  RoutingGrid g(d, nullptr);
  EXPECT_EQ(g.owner(g.id(Node{RLayer::M2, 3, 2})), 0);
  EXPECT_EQ(g.owner(g.id(Node{RLayer::M2, 3, 4})), 0);
  EXPECT_EQ(g.owner(g.id(Node{RLayer::M2, 7, 14})), 1);
  EXPECT_EQ(g.owner(g.id(Node{RLayer::M2, 5, 2})), geom::kInvalidIndex);
}

TEST(RoutingGrid, IntervalMapFollowsPlan) {
  const Design d = makeDesign();
  core::PinAccessPlan plan;
  plan.routes.assign(d.pins().size(), core::PinRoute{});
  plan.routes[0] = core::PinRoute{3, Interval{1, 8}};  // pin a1 on track 3
  RoutingGrid g(d, &plan);
  EXPECT_EQ(g.owner(g.id(Node{RLayer::M2, 1, 3})), 0);
  EXPECT_EQ(g.owner(g.id(Node{RLayer::M2, 8, 3})), 0);
  EXPECT_EQ(g.owner(g.id(Node{RLayer::M2, 9, 3})), geom::kInvalidIndex);
  // Without a plan only the pin projections own nodes.
  RoutingGrid g2(d, nullptr);
  EXPECT_EQ(g2.owner(g2.id(Node{RLayer::M2, 1, 3})), geom::kInvalidIndex);
}

// ---- owner fold: which net a node admits when sources overlap ----

/// Three nets on a 20 x 20 die whose pins and intervals overlap on purpose.
Design overlapDesign() {
  Design d("fold", 20, 2, 10);
  const db::Index a = d.addNet("A");
  const db::Index b = d.addNet("B");
  const db::Index c = d.addNet("C");
  // Pins a1 and b1 both project onto column 4, tracks 3..5.
  d.addPin("a1", a, Rect{Interval::point(4), Interval{2, 5}});
  d.addPin("b1", b, Rect{Interval::point(4), Interval{3, 6}});
  d.addPin("c1", c, Rect{Interval::point(15), Interval{12, 14}});
  // An M2 blockage over part of pin c1, and an M3 blockage.
  d.addBlockage(Layer::M2, Rect{Interval::point(15), Interval::point(13)});
  d.addBlockage(Layer::M3, Rect{Interval{6, 7}, Interval{10, 11}});
  return d;
}

TEST(RoutingGridOwner, LastOverlappingPinWins) {
  const Design d = overlapDesign();
  RoutingGrid g(d, nullptr);
  EXPECT_EQ(g.owner(g.id(Node{RLayer::M2, 4, 2})), 0);  // only a1
  EXPECT_EQ(g.owner(g.id(Node{RLayer::M2, 4, 3})), 1);  // a1 then b1
  EXPECT_EQ(g.owner(g.id(Node{RLayer::M2, 4, 5})), 1);
  EXPECT_EQ(g.owner(g.id(Node{RLayer::M2, 4, 6})), 1);  // only b1
  EXPECT_FALSE(g.blocked(g.id(Node{RLayer::M2, 4, 3})));
}

TEST(RoutingGridOwner, LastOverlappingIntervalWins) {
  const Design d = overlapDesign();
  core::PinAccessPlan plan;
  plan.routes.assign(d.pins().size(), core::PinRoute{});
  plan.routes[0] = core::PinRoute{8, Interval{2, 10}};  // net A
  plan.routes[2] = core::PinRoute{8, Interval{8, 16}};  // net C, later pin
  RoutingGrid g(d, &plan);
  EXPECT_EQ(g.owner(g.id(Node{RLayer::M2, 7, 8})), 0);
  EXPECT_EQ(g.owner(g.id(Node{RLayer::M2, 8, 8})), 2);
  EXPECT_EQ(g.owner(g.id(Node{RLayer::M2, 10, 8})), 2);
  EXPECT_EQ(g.owner(g.id(Node{RLayer::M2, 16, 8})), 2);
  EXPECT_EQ(g.owner(g.id(Node{RLayer::M2, 17, 8})), geom::kInvalidIndex);
}

TEST(RoutingGridOwner, PinAndIntervalOfDifferentNetsAreContested) {
  const Design d = overlapDesign();
  core::PinAccessPlan plan;
  plan.routes.assign(d.pins().size(), core::PinRoute{});
  // Net C's interval crosses column 4 on track 5, where b1 (net B) projects.
  plan.routes[2] = core::PinRoute{5, Interval{3, 15}};
  // Net A's interval on track 2 agrees with its own pin there.
  plan.routes[0] = core::PinRoute{2, Interval{1, 6}};
  RoutingGrid g(d, &plan);
  const int contested = g.id(Node{RLayer::M2, 4, 5});
  EXPECT_EQ(g.owner(contested), kContestedOwner);
  EXPECT_FALSE(g.blocked(contested));  // line-end extensions may enter
  EXPECT_EQ(g.owner(g.id(Node{RLayer::M2, 5, 5})), 2);
  EXPECT_EQ(g.owner(g.id(Node{RLayer::M2, 4, 2})), 0);  // same net: no conflict
}

TEST(RoutingGridOwner, BlockageOverridesPinAndInterval) {
  const Design d = overlapDesign();
  core::PinAccessPlan plan;
  plan.routes.assign(d.pins().size(), core::PinRoute{});
  plan.routes[2] = core::PinRoute{13, Interval{14, 16}};
  RoutingGrid g(d, &plan);
  const int under = g.id(Node{RLayer::M2, 15, 13});
  EXPECT_EQ(g.owner(under), kBlockedOwner);
  EXPECT_TRUE(g.blocked(under));
  EXPECT_EQ(g.owner(g.id(Node{RLayer::M2, 15, 12})), 2);  // rest of c1
  EXPECT_FALSE(g.blocked(g.id(Node{RLayer::M3, 15, 13})));
}

TEST(RoutingGridOwner, M3BlockagesAreSeparateFromM2Owners) {
  const Design d = overlapDesign();
  RoutingGrid g(d, nullptr);
  for (const Coord x : {6, 7}) {
    for (const Coord y : {10, 11}) {
      EXPECT_TRUE(g.blocked(g.id(Node{RLayer::M3, x, y})));
      EXPECT_FALSE(g.blocked(g.id(Node{RLayer::M2, x, y})));
      EXPECT_EQ(g.owner(g.id(Node{RLayer::M2, x, y})), geom::kInvalidIndex);
    }
  }
  EXPECT_FALSE(g.blocked(g.id(Node{RLayer::M3, 8, 10})));
  EXPECT_FALSE(g.blocked(g.id(Node{RLayer::M3, 6, 12})));
}

TEST(RoutingGrid, OccupancyAndCongestion) {
  const Design d = makeDesign();
  RoutingGrid g(d, nullptr);
  const int id = g.id(Node{RLayer::M2, 10, 10});
  EXPECT_EQ(g.occupancy(id), 0);
  g.addOcc(id);
  g.addOcc(id);
  EXPECT_EQ(g.occupancy(id), 2);
  EXPECT_EQ(g.congestedNodeCount(), 1);
  g.removeOcc(id);
  EXPECT_EQ(g.congestedNodeCount(), 0);
}

TEST(RoutingGrid, HistoryCountsOverusedAccruals) {
  const Design d = makeDesign();
  RoutingGrid g(d, nullptr);
  const int shared = g.id(Node{RLayer::M3, 4, 4});
  const int single = g.id(Node{RLayer::M2, 4, 4});
  g.addOcc(shared);
  g.addOcc(shared);
  g.addOcc(single);
  g.accrueHistory();
  g.accrueHistory();
  EXPECT_EQ(g.history(shared), 2);
  EXPECT_EQ(g.history(single), 0);  // used by one net: not overused
  g.removeOcc(shared);
  g.accrueHistory();
  EXPECT_EQ(g.history(shared), 2);  // history never decays
}

TEST(RoutingGrid, ViaForbiddenIsSameTrackOnly) {
  const Design d = makeDesign();
  RoutingGrid g(d, nullptr);
  g.addVia(10, 10, /*net=*/0);
  EXPECT_TRUE(g.viaForbidden(10, 10, 1));   // same site, other net
  EXPECT_TRUE(g.viaForbidden(11, 10, 1));   // adjacent column, same track
  EXPECT_TRUE(g.viaForbidden(9, 10, 1));
  EXPECT_FALSE(g.viaForbidden(10, 11, 1));  // adjacent track: fine
  EXPECT_FALSE(g.viaForbidden(12, 10, 1));  // two columns away: fine
  EXPECT_FALSE(g.viaForbidden(11, 10, 0));  // same net: fine
  g.removeVia(10, 10, 0);
  EXPECT_FALSE(g.viaForbidden(10, 10, 1));
}

TEST(RoutingGrid, NodeDecodeMatchesDivisionForEveryId) {
  // Width 1 is where a naive ceil(2^64 / w) multiplier wraps to 0; the
  // others cover small, odd, power-of-two and 16-bit-wide rows.
  std::vector<Coord> widths;
  for (Coord w = 1; w <= 257; ++w) widths.push_back(w);
  for (const Coord w : {2025, 4096, 65535}) widths.push_back(w);
  for (const Coord w : widths) {
    const Design d("w", w, w >= 2025 ? 2 : 3, w >= 2025 ? 4 : 5);
    const RoutingGrid g(d, nullptr);
    const int plane = g.planeSize();
    for (int id = 0; id < g.numNodes(); ++id) {
      const int rem = id % plane;
      const Node want{id < plane ? RLayer::M2 : RLayer::M3, rem % w, rem / w};
      const Node got = g.node(id);
      if (!(got == want)) {
        ADD_FAILURE() << "width " << w << " id " << id << ": got ("
                      << got.x << "," << got.y << ")";
        break;
      }
    }
  }
}

TEST(RoutingGrid, IncrementalCongestionMatchesFullScans) {
  // Random addOcc/removeOcc/accrueHistory/markShared sequences against a
  // shadow grid scanned in full after every step: the count, the history
  // and the promise of sharedSinceMark (every node overused now and not at
  // the last mark is listed, once), with the list kept O(overused).
  std::mt19937 rng(29);
  for (int trial = 0; trial < 12; ++trial) {
    const Design d("cong", 24 + trial, 2, 10);
    RoutingGrid g(d, nullptr);
    const int nodes = g.numNodes();
    // A small hot region makes sharing common; the rest of the grid is
    // touched too so nodes leave and re-enter the overused set.
    const int hot = 40 + trial * 7;
    std::vector<int> occ(static_cast<std::size_t>(nodes), 0);
    std::vector<int> hist(static_cast<std::size_t>(nodes), 0);
    std::vector<char> overusedAtMark(static_cast<std::size_t>(nodes), 0);
    std::uniform_int_distribution<int> op(0, 99);
    std::uniform_int_distribution<int> any(0, nodes - 1);
    std::uniform_int_distribution<int> inHot(0, hot - 1);
    int accruals = 0;
    for (int step = 0; step < 6000; ++step) {
      const int o = op(rng);
      const int id = o % 3 == 0 ? any(rng) : inHot(rng) * (nodes / hot);
      if (o < 50) {
        g.addOcc(id);
        ++occ[static_cast<std::size_t>(id)];
      } else if (o < 96) {
        if (occ[static_cast<std::size_t>(id)] == 0) continue;
        g.removeOcc(id);
        --occ[static_cast<std::size_t>(id)];
      } else if (o < 98 && accruals < 255) {
        g.accrueHistory();
        ++accruals;
        for (std::size_t k = 0; k < occ.size(); ++k) hist[k] += occ[k] > 1;
      } else {
        g.markShared();
        EXPECT_TRUE(g.sharedSinceMark().empty());
        for (int k = 0; k < nodes; ++k)
          overusedAtMark[static_cast<std::size_t>(k)] =
              occ[static_cast<std::size_t>(k)] > 1;
      }

      long overused = 0;
      std::set<int> listed(g.sharedSinceMark().begin(),
                           g.sharedSinceMark().end());
      ASSERT_EQ(listed.size(), g.sharedSinceMark().size()) << "duplicate entry";
      for (int k = 0; k < nodes; ++k) {
        const auto kk = static_cast<std::size_t>(k);
        ASSERT_EQ(g.occupancy(k), occ[kk]);
        if (occ[kk] <= 1) continue;
        ++overused;
        if (!overusedAtMark[kk]) {
          ASSERT_TRUE(listed.count(k)) << "trial " << trial << " step " << step;
        }
      }
      ASSERT_EQ(g.congestedNodeCount(), overused);
      // Removals leave stale entries; the next addOcc bounds them again.
      if (o < 50) {
        ASSERT_LT(g.sharedSinceMark().size(),
                  2 * static_cast<std::size_t>(overused) + 64);
      }
    }
    for (int k = 0; k < nodes; ++k)
      EXPECT_EQ(g.history(k), hist[static_cast<std::size_t>(k)]) << k;
    EXPECT_GT(accruals, 20);
  }
}

TEST(RoutingGrid, OverusedListStaysBoundedWithoutMarks) {
  // The sequential router never marks or accrues: nodes that stop being
  // overused must still leave the list once they outnumber the live ones.
  const Design d("seq", 40, 2, 10);
  RoutingGrid g(d, nullptr);
  for (int id = 0; id < 500; ++id) {
    g.addOcc(id);
    g.addOcc(id);
  }
  for (int id = 0; id < 500; ++id) g.removeOcc(id);
  EXPECT_EQ(g.congestedNodeCount(), 0);
  EXPECT_EQ(g.sharedSinceMark().size(), 500u);  // all stale, none dropped yet
  const int fresh = 700;
  g.addOcc(fresh);
  g.addOcc(fresh);
  ASSERT_EQ(g.sharedSinceMark().size(), 1u);
  EXPECT_EQ(g.sharedSinceMark()[0], fresh);
  // A dropped node is listed again when it is overused again.
  g.addOcc(3);
  EXPECT_EQ(g.congestedNodeCount(), 2);
  EXPECT_EQ(g.sharedSinceMark().size(), 2u);
}

}  // namespace
}  // namespace cpr::route
