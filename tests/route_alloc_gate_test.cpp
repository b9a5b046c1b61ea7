/// Allocation-regression gate: this binary (and only this binary, plus the
/// benches) links `cpr::alloc_guard`, which replaces the global operator
/// new/delete with a counting pair that reports into support/alloc_hook.h.
/// The tests first prove the guard is actually live — an allocation inside
/// an armed HotRegion must be observed — and then pin the real contract:
/// `MazeRouter::findPath` performs ZERO heap allocations inside its hot
/// region, from the very first armed search on a bound scratch (reserve
/// happens outside the region, so there is no warmup forgiveness), and the
/// paths it returns are identical to the unarmed run. A whole warm net
/// search (`RouteEngine::searchNet` into a reused plan and scratch) then
/// allocates nothing at all.
#include <gtest/gtest.h>

#include <vector>

#include "core/optimizer.h"
#include "route/engine.h"
#include "route/maze.h"
#include "support/alloc_hook.h"

namespace cpr::route {
namespace {

namespace alloc = cpr::support::alloc;

using db::Design;
using geom::Interval;
using geom::Rect;

/// Arms the hook for one scope and disarms + clears on the way out, so a
/// failing test never leaks an armed counter into its neighbors.
class ArmedScope {
 public:
  ArmedScope() {
    alloc::resetHotRegionAllocs();
    alloc::arm(true);
  }
  ArmedScope(const ArmedScope&) = delete;
  ArmedScope& operator=(const ArmedScope&) = delete;
  ~ArmedScope() {
    alloc::arm(false);
    alloc::resetHotRegionAllocs();
  }
};

Design openField() {
  Design d("maze", 30, 1, 10);
  const db::Index a = d.addNet("A");
  const db::Index b = d.addNet("B");
  d.addPin("a1", a, Rect{Interval::point(0), Interval{1, 3}});
  d.addPin("a2", a, Rect{Interval::point(29), Interval{1, 3}});
  d.addPin("b1", b, Rect{Interval::point(0), Interval{6, 8}});
  d.addPin("b2", b, Rect{Interval::point(29), Interval{6, 8}});
  return d;
}

geom::Rect fullWindow(const RoutingGrid& g) {
  return {0, 0, g.width() - 1, g.height() - 1};
}

// Negative control: without this, every zero below could be vacuous (the
// guard not linked, or the hook disarmed). A vector forced to grow inside
// an armed region must be seen by the replaced operator new.
TEST(AllocGate, GuardObservesAllocationsInsideArmedRegions) {
  ArmedScope armed;
  {
    const alloc::HotRegion region;
    std::vector<int> v;
    v.reserve(64);  // reserve also allocates; it is hot here on purpose
    v.push_back(1);
  }
  EXPECT_GT(alloc::hotRegionAllocs(), 0)
      << "cpr::alloc_guard is not intercepting operator new";
}

TEST(AllocGate, AllocationsOutsideRegionsOrWhileDisarmedAreIgnored) {
  alloc::resetHotRegionAllocs();
  alloc::arm(true);
  std::vector<int> outside(128, 7);  // no region open
  EXPECT_EQ(alloc::hotRegionAllocs(), 0);
  alloc::arm(false);
  {
    const alloc::HotRegion region;
    std::vector<int> disarmed(128, 7);  // region open but hook disarmed
  }
  EXPECT_EQ(alloc::hotRegionAllocs(), 0);
  alloc::resetHotRegionAllocs();
}

TEST(AllocGate, PauseSuppressesCountingAndNestingRestoresIt) {
  ArmedScope armed;
  {
    const alloc::HotRegion region;
    {
      const alloc::HotRegionPause pause;
      std::vector<int> cold(128, 7);  // sanctioned cold island
    }
    EXPECT_EQ(alloc::hotRegionAllocs(), 0);
    std::vector<int> hot(128, 7);  // back inside the region
  }
  EXPECT_GT(alloc::hotRegionAllocs(), 0);
}

// The gate itself. Zero from the FIRST armed search: bind() and the heap
// reserve run outside the hot region, so there is no warmup pass whose
// allocations the gate forgives.
TEST(AllocGate, MazeSearchHotRegionIsAllocationFreeFromTheFirstRun) {
  const Design d = openField();
  const RoutingGrid g(d, nullptr);
  const MazeRouter maze(g);
  MazeScratch scratch;

  const int s = g.id(Node{RLayer::M2, 1, 1});
  const int t = g.id(Node{RLayer::M2, 20, 8});

  std::vector<int> unarmed;
  ASSERT_TRUE(maze.findPath({s}, {t}, fullWindow(g), 0, {}, scratch, unarmed));

  ArmedScope armed;
  std::vector<int> path;
  for (int run = 0; run < 5; ++run) {
    path.clear();
    ASSERT_TRUE(maze.findPath({s}, {t}, fullWindow(g), 0, {}, scratch, path));
    EXPECT_EQ(alloc::hotRegionAllocs(), 0)
        << "hot-path allocation on armed run " << run;
  }
  EXPECT_EQ(path, unarmed) << "arming the gate changed the route";
}

// A fresh (never-bound) scratch allocates in bind() and in the reserve —
// but still not inside the hot region.
TEST(AllocGate, ColdScratchBindStaysOutsideTheHotRegion) {
  const Design d = openField();
  const RoutingGrid g(d, nullptr);
  const MazeRouter maze(g);

  ArmedScope armed;
  MazeScratch cold;
  const int s = g.id(Node{RLayer::M2, 2, 2});
  const int t = g.id(Node{RLayer::M2, 12, 2});
  std::vector<int> path;
  ASSERT_TRUE(maze.findPath({s}, {t}, fullWindow(g), 0, {}, cold, path));
  EXPECT_EQ(alloc::hotRegionAllocs(), 0);
}

// One arena reused across boxes of different size and origin: it grows only
// for the large box (in bind, outside the region), searches the small box at
// another origin through the same arrays, and returns to the large one. Each
// armed search allocates nothing in the hot region and finds exactly the
// path a fresh scratch finds.
TEST(AllocGate, ArenaReuseAcrossWindowsMatchesFreshScratch) {
  const Design d = openField();
  const RoutingGrid g(d, nullptr);
  const MazeRouter maze(g);
  struct Search {
    int source, target;
    geom::Rect window;
  };
  const Search large{g.id(Node{RLayer::M2, 1, 1}),
                     g.id(Node{RLayer::M2, 20, 8}), fullWindow(g)};
  const Search small{g.id(Node{RLayer::M2, 17, 6}),
                     g.id(Node{RLayer::M2, 26, 8}), Rect{15, 5, 28, 9}};
  auto fresh = [&](const Search& q) {
    MazeScratch scratch;
    std::vector<int> path;
    EXPECT_TRUE(maze.findPath({q.source}, {q.target}, q.window, 0, {},
                              scratch, path));
    return path;
  };
  const std::vector<int> largeRef = fresh(large);
  const std::vector<int> smallRef = fresh(small);

  MazeScratch reused;
  ArmedScope armed;
  for (const Search* q : {&large, &small, &large}) {
    std::vector<int> path;
    ASSERT_TRUE(maze.findPath({q->source}, {q->target}, q->window, 0, {},
                              reused, path));
    EXPECT_EQ(alloc::hotRegionAllocs(), 0);
    EXPECT_EQ(path, q == &small ? smallRef : largeRef);
  }
  EXPECT_EQ(reused.box, large.window);
}

// A whole net search, not just its A* loops: once the scratch and the plan
// have seen the net, `searchNet` allocates nothing anywhere — no pin order,
// no per-path vector, no plan growth. The net mixes interval pins (access
// intervals from a pin access plan) with raw-projection pins, so both V1
// paths of the search run, and the found plan equals the cold one.
TEST(AllocGate, WarmNetSearchIntoAReusedPlanAllocatesNothing) {
  Design d("net", 40, 1, 10);
  const db::Index a = d.addNet("A");
  d.addNet("B");
  d.addPin("a1", a, Rect{Interval::point(30), Interval{5, 7}});
  d.addPin("a2", a, Rect{Interval::point(2), Interval{1, 3}});
  d.addPin("a3", a, Rect{Interval::point(15), Interval{2, 4}});
  d.addPin("a4", a, Rect{Interval::point(36), Interval{1, 2}});
  d.addPin("b1", 1, Rect{Interval::point(22), Interval{1, 8}});
  core::PinAccessPlan pap;
  pap.routes.assign(d.pins().size(), core::PinRoute{});
  pap.routes[0] = core::PinRoute{6, Interval{27, 33}};  // a1: interval
  pap.routes[1] = core::PinRoute{2, Interval{0, 5}};    // a2: interval
  RouteEngine eng(d, &pap);

  MazeScratch scratch;
  NetPlan plan;
  eng.searchNet(a, {}, 0, scratch, plan);  // cold: sizes scratch and plan
  ASSERT_TRUE(plan.found);
  ASSERT_EQ(plan.recUsedXs.size(), 2u);
  int v1 = 0;
  for (const ViaSite& v : plan.vias) v1 += v.level == 1 ? 1 : 0;
  ASSERT_EQ(v1, 4);  // one V1 per pin, interval and projection alike
  const NetPlan cold = plan;

  ArmedScope armed;
  for (int run = 0; run < 3; ++run) {
    {
      const alloc::HotRegion region;
      eng.searchNet(a, {}, 0, scratch, plan);
    }
    EXPECT_EQ(alloc::hotRegionAllocs(), 0) << "allocation on warm run " << run;
    ASSERT_TRUE(plan.found);
    EXPECT_EQ(plan.nodes, cold.nodes);
    ASSERT_EQ(plan.vias.size(), cold.vias.size());
    for (std::size_t i = 0; i < plan.vias.size(); ++i) {
      EXPECT_EQ(plan.vias[i].x, cold.vias[i].x);
      EXPECT_EQ(plan.vias[i].y, cold.vias[i].y);
      EXPECT_EQ(plan.vias[i].level, cold.vias[i].level);
    }
    EXPECT_EQ(plan.box, cold.box);
    EXPECT_EQ(plan.recUsedXs, cold.recUsedXs);
  }
}

}  // namespace
}  // namespace cpr::route
