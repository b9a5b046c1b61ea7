#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "core/optimizer.h"
#include "db/layer.h"
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

// ---- commitPlan and sharingNets against their first implementations ----

/// The commit the window-local bitmap replaced, kept as the oracle: sort
/// the plan's nodes, find run ends by division (M2) and binary search (M3),
/// add the unblocked line-end extensions and sort again.
std::vector<int> referenceCommit(const RoutingGrid& g,
                                 std::vector<int> committed) {
  std::sort(committed.begin(), committed.end());
  committed.erase(std::unique(committed.begin(), committed.end()),
                  committed.end());
  const int plane = g.planeSize();
  const geom::Coord w = g.width();
  std::vector<int> extension;
  auto tryExtend = [&](geom::Coord x, geom::Coord y, RLayer layer) {
    if (!g.inside(x, y)) return;
    const int id = g.id(Node{layer, x, y});
    if (!g.blocked(id)) extension.push_back(id);
  };
  for (std::size_t i = 0; i < committed.size(); ++i) {
    const int a = committed[i];
    const geom::Coord x = (a % plane) % w;
    const geom::Coord y = (a % plane) / w;
    if (a < plane) {
      const bool hasPrev = i > 0 && committed[i - 1] == a - 1 &&
                           (a % plane) / w == ((a - 1) % plane) / w;
      const bool hasNext = i + 1 < committed.size() &&
                           committed[i + 1] == a + 1 &&
                           (a % plane) / w == ((a + 1) % plane) / w;
      for (geom::Coord e = 1; e <= db::kLineEndExtension; ++e) {
        if (!hasPrev) tryExtend(x - e, y, RLayer::M2);
        if (!hasNext) tryExtend(x + e, y, RLayer::M2);
      }
    } else {
      const bool hasPrev =
          std::binary_search(committed.begin(), committed.end(), a - w);
      const bool hasNext =
          std::binary_search(committed.begin(), committed.end(), a + w);
      for (geom::Coord e = 1; e <= db::kLineEndExtension; ++e) {
        if (!hasPrev) tryExtend(x, y - e, RLayer::M3);
        if (!hasNext) tryExtend(x, y + e, RLayer::M3);
      }
    }
  }
  committed.insert(committed.end(), extension.begin(), extension.end());
  std::sort(committed.begin(), committed.end());
  committed.erase(std::unique(committed.begin(), committed.end()),
                  committed.end());
  return committed;
}

/// A random found plan for a net inside `region` (the whole die when
/// empty): straight M2 and M3 runs plus loose nodes, drawn so that many
/// touch the region's edges, and so the die's four edges, on both layers.
NetPlan randomPlan(const RoutingGrid& g, std::mt19937& rng,
                   std::size_t records, Rect region = {}) {
  if (region.empty()) region = Rect{0, 0, g.width() - 1, g.height() - 1};
  auto coord = [&](Interval range) {
    const int pick = std::uniform_int_distribution<int>(0, 5)(rng);
    if (pick == 0) return range.lo;
    if (pick == 1) return range.hi;
    if (pick == 2) return std::min(range.lo + 1, range.hi);
    return std::uniform_int_distribution<geom::Coord>(range.lo, range.hi)(rng);
  };
  NetPlan plan;
  plan.found = true;
  const int runs = std::uniform_int_distribution<int>(1, 6)(rng);
  for (int r = 0; r < runs; ++r) {
    std::vector<int> path;
    const bool m3 = std::uniform_int_distribution<int>(0, 1)(rng) != 0;
    const int len = std::uniform_int_distribution<int>(1, 9)(rng);
    geom::Coord x = coord(region.x);
    geom::Coord y = coord(region.y);
    for (int k = 0; k < len; ++k) {
      path.push_back(g.id(Node{m3 ? RLayer::M3 : RLayer::M2, x, y}));
      // Walk toward the region's interior so edge runs stay inside it.
      if (m3)
        y += y < region.y.hi ? 1 : (y > region.y.lo ? -1 : 0);
      else
        x += x < region.x.hi ? 1 : (x > region.x.lo ? -1 : 0);
    }
    if (std::uniform_int_distribution<int>(0, 3)(rng) == 0)
      path.push_back(
          g.id(Node{RLayer::M2, coord(region.x), coord(region.y)}));
    for (const int id : path)
      plan.box.expand(geom::Point{g.node(id).x, g.node(id).y});
    plan.nodes.insert(plan.nodes.end(), path.begin(), path.end());
  }
  plan.recUsedXs.resize(records);
  for (geom::Interval& used : plan.recUsedXs) {
    if (std::uniform_int_distribution<int>(0, 2)(rng) == 0) continue;
    const geom::Coord a = coord(region.x);
    const geom::Coord b = coord(region.x);
    used = geom::Interval{std::min(a, b), std::max(a, b)};
  }
  return plan;
}

/// Interval records as the engine builds them: one per distinct
/// (track, span) among the net's valid routes, in pin order, each with the
/// hull of its pins' x-ranges.
struct RefRecord {
  geom::Coord track;
  Interval span;
  Interval needed;
};
std::vector<RefRecord> referenceRecords(const Design& d,
                                        const core::PinAccessPlan& plan,
                                        db::Index net) {
  std::vector<RefRecord> recs;
  for (const db::Index pin : d.net(net).pins) {
    const core::PinRoute& r = plan.routes[static_cast<std::size_t>(pin)];
    if (!r.valid()) continue;
    auto it = std::find_if(recs.begin(), recs.end(), [&](const RefRecord& rec) {
      return rec.track == r.track && rec.span == r.span;
    });
    if (it == recs.end())
      recs.push_back(RefRecord{r.track, r.span, d.pin(pin).shape.x});
    else
      it->needed = geom::hull(it->needed, d.pin(pin).shape.x);
  }
  return recs;
}

/// Die with blockages on both layers along all four edges (so extensions
/// are skipped there) and nets whose access intervals reach the die edges.
Design edgeDesign(geom::Coord width, core::PinAccessPlan& plan) {
  Design d("edge", width, 2, 6);
  const geom::Coord h = 12;
  for (int n = 0; n < 6; ++n) {
    std::string name = "n";
    name += std::to_string(n);
    d.addNet(name);
  }
  for (int p = 0; p < 12; ++p) {
    const geom::Coord x = (p * 5) % width;
    std::string name = "p";
    name += std::to_string(p);
    d.addPin(name, p % 6,
             Rect{Interval::point(x), Interval::point((p * 3) % h)});
  }
  const auto block = [&](db::Layer layer, Interval xs, Interval ys) {
    xs = geom::intersect(xs, Interval{0, width - 1});
    if (!xs.empty()) d.addBlockage(layer, Rect{xs, ys});
  };
  block(db::Layer::M2, Interval{0, 0}, Interval{4, 5});
  block(db::Layer::M2, Interval{width - 1, width - 1}, Interval{7, 8});
  block(db::Layer::M3, Interval{2, 3}, Interval{0, 0});
  block(db::Layer::M3, Interval{5, 6}, Interval{h - 1, h - 1});
  block(db::Layer::M3, Interval{0, 7}, Interval{3, 3});
  plan.routes.assign(d.pins().size(), core::PinRoute{});
  for (std::size_t p = 0; p < d.pins().size(); p += 2) {
    const geom::Coord x = d.pins()[p].shape.x.lo;
    plan.routes[p] = core::PinRoute{d.pins()[p].shape.y.lo,
                                    Interval{std::max<geom::Coord>(0, x - 3),
                                             std::min(width - 1, x + 2)}};
  }
  return d;
}

TEST(RouteEngine, CommitPlanMatchesSortAndDivideReference) {
  std::mt19937 rng(31);
  long checked = 0;
  for (const geom::Coord width : {1, 2, 3, 17, 64, 65, 130}) {
    core::PinAccessPlan pap;
    const Design d = edgeDesign(width, pap);
    for (const bool withPlan : {false, true}) {
      RouteEngine eng(d, withPlan ? &pap : nullptr);
      const RoutingGrid& g = eng.grid();
      for (int trial = 0; trial < 60; ++trial) {
        const auto net = static_cast<db::Index>(trial % 6);
        const std::vector<RefRecord> recs =
            withPlan ? referenceRecords(d, pap, net) : std::vector<RefRecord>{};
        const NetPlan plan = randomPlan(g, rng, recs.size());
        std::vector<int> base = plan.nodes;
        for (std::size_t r = 0; r < recs.size(); ++r) {
          const Interval trimmed = geom::intersect(
              geom::hull(recs[r].needed, plan.recUsedXs[r]), recs[r].span);
          for (geom::Coord x = trimmed.lo; x <= trimmed.hi; ++x)
            base.push_back(g.id(Node{RLayer::M2, x, recs[r].track}));
        }
        eng.ripNet(net);
        eng.commitPlan(net, plan);
        const std::vector<int> want = referenceCommit(g, base);
        ASSERT_EQ(eng.state(net).nodes, want)
            << "width " << width << " plan " << withPlan << " trial " << trial;
        for (const int id : want) ASSERT_TRUE(eng.state(net).box.contains(
            geom::Point{g.node(id).x, g.node(id).y}));
        ++checked;
      }
      // Occupancy is the sum of the committed nets' nodes.
      std::vector<int> occ(static_cast<std::size_t>(g.numNodes()), 0);
      for (db::Index n = 0; n < 6; ++n)
        for (const int id : eng.state(n).nodes)
          ++occ[static_cast<std::size_t>(id)];
      for (int id = 0; id < g.numNodes(); ++id)
        ASSERT_EQ(g.occupancy(id), occ[static_cast<std::size_t>(id)]);
    }
  }
  EXPECT_EQ(checked, 7 * 2 * 60);
}

TEST(RouteEngine, SinglePinNetCommitsItsAccessNode) {
  // No path search runs: the plan's one path is the pin's first access
  // node, which must still bound the commit.
  MazeScratch scratch;
  Design d("single", 30, 1, 10);
  const db::Index a = d.addNet("A");
  d.addPin("a1", a, Rect{Interval::point(5), Interval{2, 4}});
  RouteEngine eng(d, nullptr);
  ASSERT_TRUE(eng.routeNet(a, {}, scratch));
  const RoutingGrid& g = eng.grid();
  const int access = g.id(Node{RLayer::M2, 5, 2});
  EXPECT_EQ(eng.state(a).nodes, referenceCommit(g, {access}));
  EXPECT_EQ(eng.state(a).nodes.size(), 3u);  // the node and two extensions
  EXPECT_EQ(eng.state(a).vias.size(), 1u);
}

/// Field for plan-slot reuse: net A has five pins, listed out of x order,
/// two of them on access intervals; net B has two projection pins; net C
/// has two interval pins and connects them, but not its third pin, behind
/// a wall of blockage on both layers.
Design slotDesign(core::PinAccessPlan& pap) {
  Design d("slots", 60, 1, 10);
  const db::Index a = d.addNet("A");
  const db::Index b = d.addNet("B");
  const db::Index c = d.addNet("C");
  d.addPin("a3", a, Rect{Interval::point(29), Interval{2, 4}});
  d.addPin("a1", a, Rect{Interval::point(3), Interval{1, 3}});
  d.addPin("a5", a, Rect{Interval::point(52), Interval{1, 2}});
  d.addPin("a2", a, Rect{Interval::point(17), Interval{6, 8}});
  d.addPin("a4", a, Rect{Interval::point(41), Interval{5, 7}});
  d.addPin("b1", b, Rect{Interval::point(10), Interval{4, 5}});
  d.addPin("b2", b, Rect{Interval::point(14), Interval{1, 2}});
  d.addPin("c1", c, Rect{Interval::point(40), Interval{8, 9}});
  d.addPin("c2", c, Rect{Interval::point(46), Interval{8, 9}});
  d.addPin("c3", c, Rect{Interval::point(58), Interval{8, 9}});
  d.addBlockage(db::Layer::M2, Rect{Interval::point(55), Interval{0, 9}});
  d.addBlockage(db::Layer::M3, Rect{Interval::point(55), Interval{0, 9}});
  pap.routes.assign(d.pins().size(), core::PinRoute{});
  pap.routes[3] = core::PinRoute{7, Interval{15, 21}};  // a2
  pap.routes[4] = core::PinRoute{6, Interval{39, 44}};  // a4
  pap.routes[7] = core::PinRoute{9, Interval{37, 41}};  // c1
  pap.routes[8] = core::PinRoute{9, Interval{45, 49}};  // c2
  return d;
}

void expectSamePlan(const NetPlan& got, const NetPlan& want) {
  EXPECT_EQ(got.found, want.found);
  EXPECT_EQ(got.nodes, want.nodes);
  ASSERT_EQ(got.vias.size(), want.vias.size());
  for (std::size_t i = 0; i < got.vias.size(); ++i) {
    EXPECT_EQ(got.vias[i].x, want.vias[i].x) << "via " << i;
    EXPECT_EQ(got.vias[i].y, want.vias[i].y) << "via " << i;
    EXPECT_EQ(got.vias[i].level, want.vias[i].level) << "via " << i;
  }
  EXPECT_EQ(got.box, want.box);
  EXPECT_EQ(got.recUsedXs, want.recUsedXs);
}

TEST(RouteEngine, ReusedPlanSlotMatchesAFreshPlan) {
  // One slot refilled by a five-pin net, then by smaller nets: neither the
  // larger net's nodes, vias and interval extents, nor the leftovers of a
  // search that failed part-way, may reach a later plan or its commit.
  core::PinAccessPlan pap;
  const Design d = slotDesign(pap);
  RouteEngine eng(d, &pap);
  RouteEngine ref(d, &pap);
  MazeScratch scratch;
  NetPlan slot;
  for (const db::Index net : {0, 2, 1, 2, 0, 1}) {
    eng.searchNet(net, {}, 0, scratch, slot);
    MazeScratch freshScratch;
    NetPlan fresh;
    ref.searchNet(net, {}, 0, freshScratch, fresh);
    expectSamePlan(slot, fresh);
    EXPECT_EQ(slot.found, net != 2) << "net " << net;
    if (!slot.found) {
      EXPECT_FALSE(slot.nodes.empty());  // net C's first connection landed
      continue;
    }
    eng.commitPlan(net, slot);
    ref.commitPlan(net, fresh);
    EXPECT_EQ(eng.state(net).nodes, ref.state(net).nodes) << "net " << net;
    EXPECT_EQ(eng.state(net).vias.size(), ref.state(net).vias.size());
    eng.ripNet(net);
    ref.ripNet(net);
  }
}

TEST(RouteEngine, SharingNetsMatchesFullScan) {
  // Random committed states, reached by batches of rips and commits like
  // the negotiation's iterations, with queries in between. Each net keeps
  // to a home region, so most nets share with few others and their boxes
  // cover few coarse cells; regions hug the die edges, some nets stay
  // unrouted, and some rounds change nothing.
  std::mt19937 rng(37);
  long sharingSeen = 0;
  long roundsWithoutChange = 0;
  for (const geom::Coord width : {5, 70, 150}) {
    Design d("share", width, 6, 8);  // 48 tracks
    constexpr db::Index kNets = 24;
    for (db::Index n = 0; n < kNets; ++n) {
      std::string name = "n";
      name += std::to_string(n);
      d.addNet(name);
    }
    RouteEngine eng(d, nullptr);
    const RoutingGrid& g = eng.grid();
    auto draw = [&](geom::Coord lo, geom::Coord hi) {
      return std::uniform_int_distribution<geom::Coord>(lo, hi)(rng);
    };
    std::vector<Rect> home;
    for (db::Index n = 0; n < kNets; ++n) {
      const geom::Coord w = draw(1, std::min<geom::Coord>(width, 24));
      const geom::Coord h = draw(1, 12);
      const geom::Coord x = draw(0, width - w);
      const geom::Coord y = draw(0, 48 - h);
      home.push_back(Rect{x, y, x + w - 1, y + h - 1});
    }
    auto scan = [&] {
      std::vector<db::Index> out;
      for (db::Index n = 0; n < kNets; ++n) {
        const auto& nodes = eng.state(n).nodes;
        if (std::any_of(nodes.begin(), nodes.end(),
                        [&](int id) { return g.occupancy(id) > 1; }))
          out.push_back(n);
      }
      return out;
    };
    for (int round = 0; round < 300; ++round) {
      const int changes = draw(0, 5);
      roundsWithoutChange += changes == 0 ? 1 : 0;
      for (int c = 0; c < changes; ++c) {
        const auto net = static_cast<db::Index>(draw(0, kNets - 1));
        eng.ripNet(net);
        if (draw(0, 4) == 0) continue;
        eng.commitPlan(
            net, randomPlan(g, rng, 0, home[static_cast<std::size_t>(net)]));
      }
      const std::vector<db::Index> want = scan();
      ASSERT_EQ(eng.sharingNets(), want)
          << "width " << width << " round " << round;
      sharingSeen += static_cast<long>(want.size());
    }
  }
  EXPECT_GT(sharingSeen, 300);
  EXPECT_GT(roundsWithoutChange, 50);
}

}  // namespace
}  // namespace cpr::route
