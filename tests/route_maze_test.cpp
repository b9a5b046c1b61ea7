#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <climits>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "route/maze.h"

namespace cpr::route {
namespace {

using db::Design;
using db::Layer;
using geom::Interval;
using geom::Rect;

/// `prefix` followed by `i`, e.g. "n3". Built with += because GCC 12 flags
/// `"n" + std::to_string(i)` with a -Wrestrict false positive in Release.
std::string numbered(char prefix, int i) {
  std::string s(1, prefix);
  s += std::to_string(i);
  return s;
}

/// Empty single-row design: 30 columns, 10 tracks, two stub pins so that the
/// grid has two distinct nets to reason about.
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

TEST(Maze, StraightTrackPath) {
  Design d = openField();
  RoutingGrid g(d, nullptr);
  MazeRouter maze(g);
  MazeScratch scratch;
  const int s = g.id(Node{RLayer::M2, 2, 2});
  const int t = g.id(Node{RLayer::M2, 12, 2});
  std::vector<int> path;
  ASSERT_TRUE(maze.findPath({s}, {t}, fullWindow(g), 0, {}, scratch, path));
  EXPECT_EQ(path.size(), 11u);  // straight run of 11 nodes
  EXPECT_EQ(path.front(), s);
  EXPECT_EQ(path.back(), t);
}

TEST(Maze, SourceIsTargetYieldsTrivialPath) {
  Design d = openField();
  RoutingGrid g(d, nullptr);
  MazeRouter maze(g);
  MazeScratch scratch;
  const int s = g.id(Node{RLayer::M2, 4, 4});
  std::vector<int> path;
  ASSERT_TRUE(maze.findPath({s}, {s}, fullWindow(g), 0, {}, scratch, path));
  EXPECT_EQ(path.size(), 1u);
}

TEST(Maze, TrackChangeUsesVias) {
  Design d = openField();
  RoutingGrid g(d, nullptr);
  MazeRouter maze(g);
  MazeScratch scratch;
  const int s = g.id(Node{RLayer::M2, 5, 2});
  const int t = g.id(Node{RLayer::M2, 5, 7});
  std::vector<int> path;
  ASSERT_TRUE(maze.findPath({s}, {t}, fullWindow(g), 0, {}, scratch, path));
  // M2 -> via -> M3 run -> via -> M2: two layer changes.
  int layerChanges = 0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if ((g.node(path[i]).layer) != (g.node(path[i + 1]).layer))
      ++layerChanges;
  }
  EXPECT_EQ(layerChanges, 2);
}

TEST(Maze, UnidirectionalMovesOnly) {
  Design d = openField();
  RoutingGrid g(d, nullptr);
  MazeRouter maze(g);
  MazeScratch scratch;
  const int s = g.id(Node{RLayer::M2, 1, 1});
  const int t = g.id(Node{RLayer::M2, 20, 8});
  std::vector<int> path;
  ASSERT_TRUE(maze.findPath({s}, {t}, fullWindow(g), 0, {}, scratch, path));
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const Node u = g.node(path[i]);
    const Node v = g.node(path[i + 1]);
    if (u.layer == v.layer) {
      if (u.layer == RLayer::M2) {
        EXPECT_EQ(u.y, v.y);  // horizontal only
        EXPECT_EQ(std::abs(u.x - v.x), 1);
      } else {
        EXPECT_EQ(u.x, v.x);  // vertical only
        EXPECT_EQ(std::abs(u.y - v.y), 1);
      }
    } else {
      EXPECT_EQ(u.x, v.x);
      EXPECT_EQ(u.y, v.y);  // vias are in-place
    }
  }
}

TEST(Maze, OtherNetPinProjectionIsHardWall) {
  Design d("wall", 30, 1, 10);
  const db::Index a = d.addNet("A");
  const db::Index b = d.addNet("B");
  d.addPin("a1", a, Rect{Interval::point(0), Interval{4, 4}});
  d.addPin("a2", a, Rect{Interval::point(29), Interval{4, 4}});
  // Net B's pin blocks track 4 columns 14..15 for net A.
  d.addPin("b1", b, Rect{Interval{14, 15}, Interval{3, 5}});
  d.addPin("b2", b, Rect{Interval::point(20), Interval{7, 8}});
  RoutingGrid g(d, nullptr);
  MazeRouter maze(g);
  MazeScratch scratch;
  const int s = g.id(Node{RLayer::M2, 2, 4});
  const int t = g.id(Node{RLayer::M2, 27, 4});
  std::vector<int> path;
  ASSERT_TRUE(maze.findPath({s}, {t}, fullWindow(g), a, {}, scratch, path));
  for (int id : path) {
    const db::Index owner = id < g.planeSize() ? g.owner(id) : geom::kInvalidIndex;
    EXPECT_TRUE(owner == geom::kInvalidIndex || owner == a);
  }
  // Net B itself may use its own projection.
  std::vector<int> own;
  ASSERT_TRUE(maze.findPath({g.id(Node{RLayer::M2, 14, 4})},
                            {g.id(Node{RLayer::M2, 15, 4})}, fullWindow(g),
                            b, {}, scratch, own));
  EXPECT_EQ(own.size(), 2u);
}

TEST(Maze, HardBlockOccupiedMode) {
  Design d = openField();
  RoutingGrid g(d, nullptr);
  // Wall of occupancy across the row on every track except 9, column 10.
  for (geom::Coord y = 0; y < 9; ++y)
    g.addOcc(g.id(Node{RLayer::M2, 10, y}));
  for (geom::Coord y = 0; y < 9; ++y)
    g.addOcc(g.id(Node{RLayer::M3, 10, y}));
  MazeRouter maze(g);
  MazeScratch scratch;
  MazeCosts hard;
  hard.hardBlockOccupied = true;
  const int s = g.id(Node{RLayer::M2, 2, 2});
  const int t = g.id(Node{RLayer::M2, 20, 2});
  std::vector<int> path;
  ASSERT_TRUE(maze.findPath({s}, {t}, fullWindow(g), 0, hard, scratch, path));
  for (int id : path) EXPECT_EQ(g.occupancy(id), 0);
}

TEST(Maze, WindowLimitsSearch) {
  Design d = openField();
  RoutingGrid g(d, nullptr);
  // Block M2 track 2 at column 10 and M3 column 10: with a one-track window
  // there is no way around.
  d.addBlockage(Layer::M2, Rect{Interval{10, 10}, Interval{2, 2}});
  RoutingGrid g2(d, nullptr);
  MazeRouter maze(g2);
  MazeScratch scratch;
  const int s = g2.id(Node{RLayer::M2, 2, 2});
  const int t = g2.id(Node{RLayer::M2, 20, 2});
  const geom::Rect narrow{0, 2, 29, 2};  // single track
  std::vector<int> path;
  EXPECT_FALSE(maze.findPath({s}, {t}, narrow, 0, {}, scratch, path));
  EXPECT_TRUE(path.empty());  // a miss appends nothing
  EXPECT_TRUE(maze.findPath({s}, {t}, fullWindow(g2), 0, {}, scratch, path));
}

// Endpoints outside the window are still searched from (the scratch binds to
// the hull of window and endpoints); only the moves stay inside the window.
TEST(Maze, SourceOutsideWindowIsStillASource) {
  Design d = openField();
  RoutingGrid g(d, nullptr);
  MazeRouter maze(g);
  MazeScratch scratch;
  const int s = g.id(Node{RLayer::M2, 9, 2});
  const int t = g.id(Node{RLayer::M2, 15, 2});
  const geom::Rect window{10, 2, 20, 2};  // single track, right of s
  std::vector<int> path;
  ASSERT_TRUE(maze.findPath({s}, {t}, window, 0, {}, scratch, path));
  EXPECT_EQ(path.size(), 7u);  // 9..15 on track 2
  EXPECT_EQ(path.front(), s);
  EXPECT_EQ(path.back(), t);
  // A source that is also a target needs no move at all, window or not.
  const int far = g.id(Node{RLayer::M3, 2, 8});
  std::vector<int> trivial;
  ASSERT_TRUE(maze.findPath({far}, {far}, window, 0, {}, scratch, trivial));
  EXPECT_EQ(trivial, std::vector<int>{far});
}

TEST(Maze, PresentCostAvoidsSharing) {
  Design d = openField();
  RoutingGrid g(d, nullptr);
  // Occupy the direct track between source and target.
  for (geom::Coord x = 3; x <= 17; ++x)
    g.addOcc(g.id(Node{RLayer::M2, x, 2}));
  MazeRouter maze(g);
  MazeScratch scratch;
  MazeCosts costs;
  costs.present = 50.0F;
  const int s = g.id(Node{RLayer::M2, 2, 2});
  const int t = g.id(Node{RLayer::M2, 18, 2});
  std::vector<int> path;
  ASSERT_TRUE(maze.findPath({s}, {t}, fullWindow(g), 0, costs, scratch, path));
  int shared = 0;
  for (int id : path) shared += g.occupancy(id) > 0 ? 1 : 0;
  EXPECT_EQ(shared, 0);  // detour around the congestion
}

TEST(Maze, ForbiddenViaCostSteersViaPlacement) {
  Design d = openField();
  RoutingGrid g(d, nullptr);
  // Another net's via sits where the cheapest via would otherwise drop.
  g.addVia(5, 2, /*net=*/1);
  MazeRouter maze(g);
  MazeScratch scratch;
  const int s = g.id(Node{RLayer::M2, 5, 2});
  const int t = g.id(Node{RLayer::M2, 5, 8});
  std::vector<int> path;
  ASSERT_TRUE(maze.findPath({s}, {t}, fullWindow(g), 0, {}, scratch, path));
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const Node u = g.node(path[i]);
    const Node v = g.node(path[i + 1]);
    if (u.layer != v.layer) {
      // The chosen via sites must not be adjacent to net 1's via.
      EXPECT_FALSE(g.viaForbidden(u.x, u.y, 0))
          << "via at " << u.x << "," << u.y;
    }
  }
}

// ---- nodeCost against the owner fold ----

TEST(MazeNodeCost, ContestedNodeAdmitsNoNetButIsNotBlocked) {
  Design d = openField();
  // Net B's interval on track 2 crosses net A's pin a1 (column 0, tracks
  // 1..3): the last pin and the last interval there disagree.
  core::PinAccessPlan plan;
  plan.routes.assign(d.pins().size(), core::PinRoute{});
  plan.routes[2] = core::PinRoute{2, Interval{0, 5}};
  RoutingGrid g(d, &plan);
  MazeRouter maze(g);
  const int contested = g.id(Node{RLayer::M2, 0, 2});
  EXPECT_FALSE(g.blocked(contested));
  for (const db::Index net : {0, 1, 7})
    EXPECT_TRUE(std::isinf(maze.nodeCost(contested, net, {}))) << net;
  // Beyond the pin the interval is net B's alone.
  const int ownB = g.id(Node{RLayer::M2, 3, 2});
  EXPECT_TRUE(std::isinf(maze.nodeCost(ownB, 0, {})));
  EXPECT_EQ(maze.nodeCost(ownB, 1, {}), 1.0F);
}

TEST(MazeNodeCost, BlockageOverAPinAdmitsNoNet) {
  Design d = openField();
  d.addBlockage(Layer::M2, Rect{Interval::point(0), Interval::point(2)});
  d.addBlockage(Layer::M3, Rect{Interval::point(4), Interval{0, 9}});
  RoutingGrid g(d, nullptr);
  MazeRouter maze(g);
  const int pinNode = g.id(Node{RLayer::M2, 0, 2});
  EXPECT_TRUE(g.blocked(pinNode));
  EXPECT_TRUE(std::isinf(maze.nodeCost(pinNode, 0, {})));  // its own pin
  EXPECT_TRUE(std::isinf(maze.nodeCost(g.id(Node{RLayer::M3, 4, 5}), 0, {})));
  EXPECT_EQ(maze.nodeCost(g.id(Node{RLayer::M2, 4, 5}), 0, {}), 1.0F);
}

/// The decision before the owner fold, kept here as the reference: three
/// static arrays (blockages per node, last pin net and last interval net
/// per M2 node) and a float history summed in steps of 1.
struct ReferenceGrid {
  std::vector<std::uint8_t> blocked;
  std::vector<db::Index> pinNet;
  std::vector<db::Index> intervalNet;
  std::vector<float> hist;

  ReferenceGrid(const Design& d, const core::PinAccessPlan& plan,
                const RoutingGrid& g)
      : blocked(std::size_t(g.numNodes()), 0),
        pinNet(std::size_t(g.planeSize()), geom::kInvalidIndex),
        intervalNet(std::size_t(g.planeSize()), geom::kInvalidIndex),
        hist(std::size_t(g.numNodes()), 0.0F) {
    for (const db::Blockage& b : d.blockages()) {
      if (b.layer == Layer::M1) continue;
      const RLayer layer = b.layer == Layer::M2 ? RLayer::M2 : RLayer::M3;
      for (geom::Coord y = b.shape.y.lo; y <= b.shape.y.hi; ++y)
        for (geom::Coord x = b.shape.x.lo; x <= b.shape.x.hi; ++x)
          blocked[std::size_t(g.id(Node{layer, x, y}))] = 1;
    }
    for (const db::Pin& p : d.pins())
      for (geom::Coord y = p.shape.y.lo; y <= p.shape.y.hi; ++y)
        for (geom::Coord x = p.shape.x.lo; x <= p.shape.x.hi; ++x)
          pinNet[std::size_t(g.id(Node{RLayer::M2, x, y}))] = p.net;
    for (std::size_t pid = 0; pid < plan.routes.size(); ++pid) {
      const core::PinRoute& r = plan.routes[pid];
      if (!r.valid()) continue;
      for (geom::Coord x = r.span.lo; x <= r.span.hi; ++x)
        intervalNet[std::size_t(g.id(Node{RLayer::M2, x, r.track}))] =
            d.pins()[pid].net;
    }
  }

  [[nodiscard]] float cost(const RoutingGrid& g, int id, db::Index net,
                           const MazeCosts& c) const {
    const float inf = std::numeric_limits<float>::infinity();
    if (blocked[std::size_t(id)]) return inf;
    if (id < g.planeSize()) {
      const db::Index pin = pinNet[std::size_t(id)];
      if (pin != geom::kInvalidIndex && pin != net) return inf;
      const db::Index iv = intervalNet[std::size_t(id)];
      if (iv != geom::kInvalidIndex && iv != net) return inf;
    }
    const int occ = g.occupancy(id);
    if (c.hardBlockOccupied && occ > 0) return inf;
    return kMetalCost + c.present * static_cast<float>(occ) +
           hist[std::size_t(id)];
  }
};

TEST(MazeNodeCost, MatchesThreeArrayReferenceOnRandomDesigns) {
  std::mt19937 rng(20261017);
  const auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  for (int trial = 0; trial < 40; ++trial) {
    const geom::Coord w = pick(6, 24);
    Design d("rand", w, pick(1, 3), 5);
    const geom::Coord h = d.gridHeight();
    const int nets = pick(1, 5);
    for (int n = 0; n < nets; ++n) d.addNet(numbered('n', n));
    // Dense, overlapping pins, intervals and blockages.
    const int pins = pick(1, 3 * nets);
    for (int p = 0; p < pins; ++p) {
      const geom::Coord x = pick(0, w - 2);
      const geom::Coord y = pick(0, h - 3);
      d.addPin(numbered('p', p), pick(0, nets - 1),
               Rect{Interval{x, x + pick(0, 1)}, Interval{y, y + pick(0, 2)}});
    }
    for (int b = pick(0, 4); b > 0; --b) {
      const geom::Coord x = pick(0, w - 3);
      const geom::Coord y = pick(0, h - 2);
      d.addBlockage(pick(0, 1) ? Layer::M2 : Layer::M3,
                    Rect{Interval{x, x + pick(0, 2)}, Interval{y, y + pick(0, 1)}});
    }
    core::PinAccessPlan plan;
    plan.routes.assign(d.pins().size(), core::PinRoute{});
    for (core::PinRoute& r : plan.routes) {
      if (pick(0, 3) == 0) continue;  // unassigned pin
      const geom::Coord lo = pick(0, w - 1);
      r = core::PinRoute{pick(0, h - 1), Interval{lo, std::min(w - 1, lo + pick(0, 6))}};
    }

    RoutingGrid g(d, &plan);
    ReferenceGrid ref(d, plan, g);
    // Random occupancy, and history accrued over a few iterations.
    for (int iter = pick(0, 4); iter > 0; --iter) {
      for (int k = pick(0, g.numNodes()); k > 0; --k) g.addOcc(pick(0, g.numNodes() - 1));
      g.accrueHistory();
      for (int id = 0; id < g.numNodes(); ++id)
        if (g.occupancy(id) > 1) ref.hist[std::size_t(id)] += 1.0F;
    }
    MazeRouter maze(g);
    MazeCosts costs;
    costs.present = 3.0F * static_cast<float>(pick(0, 20));
    costs.hardBlockOccupied = pick(0, 4) == 0;
    for (int id = 0; id < g.numNodes(); ++id) {
      ASSERT_EQ(g.blocked(id), ref.blocked[std::size_t(id)] != 0) << id;
      for (db::Index net = 0; net < nets; ++net) {
        const float want = ref.cost(g, id, net, costs);
        const float got = maze.nodeCost(id, net, costs);
        ASSERT_EQ(std::isinf(got), std::isinf(want))
            << "trial " << trial << " node " << id << " net " << net;
        if (!std::isinf(want)) {
          ASSERT_EQ(got, want);
        }
      }
    }
  }
}

// ---- the open list against std::priority_queue ----

using RefOpenList =
    std::priority_queue<std::pair<float, int>,
                        std::vector<std::pair<float, int>>, std::greater<>>;

TEST(OpenList, KeyRoundTripsPriorityAndId) {
  for (const float f : {0.0F, 0.5F, 1.0F, 63.5F, 1e30F,
                        std::numeric_limits<float>::infinity()}) {
    for (const int id : {0, 1, 12345, INT_MAX - 1, INT_MAX}) {
      const std::uint64_t key = openKey(f, id);
      EXPECT_EQ(openKeyF(key), f);
      EXPECT_EQ(openKeyId(key), id);
    }
  }
  // Unsigned key order is (f, id) order: f first, then the smaller id.
  EXPECT_LT(openKey(0.5F, INT_MAX), openKey(1.0F, 0));
  EXPECT_LT(openKey(2.0F, 3), openKey(2.0F, 4));
  EXPECT_LT(openKey(0.0F, 7), openKey(1e-30F, 0));
}

// Random push/pop streams with heavy ties: f is a multiple of 0.5 in
// [0, 64] (often exactly 0), ids come from a small range or sit next to
// INT_MAX, so most pops are decided by the id half of the key. The heap must
// pop exactly the sequence the std::priority_queue protocol pops.
TEST(OpenList, PopsLikePriorityQueueOnTiedKeys) {
  std::mt19937 rng(20261018);
  const auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  std::vector<std::uint64_t> heap;
  for (int stream = 0; stream < 200; ++stream) {
    heap.clear();
    RefOpenList ref;
    const int ops = pick(1, 600);
    const int pushBias = pick(1, 3);  // 1: balanced, 3: mostly pushes
    for (int op = 0; op < ops; ++op) {
      if (ref.empty() || pick(0, pushBias) != 0) {
        const float f =
            pick(0, 3) == 0 ? 0.0F : 0.5F * static_cast<float>(pick(0, 128));
        const int id = pick(0, 1) == 0 ? pick(0, 15) : INT_MAX - pick(0, 15);
        ref.emplace(f, id);
        heap.push_back(openKey(f, id));
        openSiftUp(heap.data(), heap.size());
      } else {
        const std::uint64_t top = heap.front();
        openSiftDown(heap.data(), heap.size());
        heap.pop_back();
        ASSERT_EQ(openKeyF(top), ref.top().first) << "stream " << stream;
        ASSERT_EQ(openKeyId(top), ref.top().second) << "stream " << stream;
        ref.pop();
      }
      ASSERT_EQ(heap.size(), ref.size());
    }
    while (!ref.empty()) {  // drain
      const std::uint64_t top = heap.front();
      openSiftDown(heap.data(), heap.size());
      heap.pop_back();
      ASSERT_EQ(std::make_pair(openKeyF(top), openKeyId(top)), ref.top());
      ref.pop();
    }
    ASSERT_TRUE(heap.empty());
  }
}

// The sifts order plain unsigned words: keys with every combination of the
// top three bits, the sign bit of a signed view included, pop in ascending
// unsigned order.
TEST(OpenList, SiftsOrderRawKeysAsUnsigned) {
  std::mt19937_64 rng(7);
  std::vector<std::uint64_t> heap;
  for (int stream = 0; stream < 50; ++stream) {
    heap.clear();
    std::priority_queue<std::uint64_t, std::vector<std::uint64_t>,
                        std::greater<>>
        ref;
    for (int op = 0; op < 500; ++op) {
      if (ref.empty() || rng() % 3 != 0) {
        // A few distinct high words, so equal-high-word runs occur too.
        const std::uint64_t key = (rng() % 8) << 61 | (rng() % 64);
        ref.push(key);
        heap.push_back(key);
        openSiftUp(heap.data(), heap.size());
      } else {
        ASSERT_EQ(heap.front(), ref.top()) << "stream " << stream;
        openSiftDown(heap.data(), heap.size());
        heap.pop_back();
        ref.pop();
      }
    }
  }
}

// The two-level list against the reference protocol. f comes from four
// regimes: multiples of 0.5 (heavy ties), arbitrary bit patterns of
// non-negative floats (denormals, huge values and +inf included), values
// packed into one binade (levels differ in low mantissa bits only), and
// exact repeats of the last popped f. A third of the pushes after a pop go
// at or below the f just popped — below the level the list last drew — and
// equal-f pushes often carry a smaller id than the entries they tie with.
TEST(OpenList, TwoLevelPopsLikePriorityQueue) {
  std::mt19937 rng(20261022);
  const auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  const auto anyFloat = [&] {  // any non-negative, non-NaN bit pattern
    for (;;) {
      const auto bits = static_cast<std::uint32_t>(rng()) & 0x7fffffffU;
      const float f = std::bit_cast<float>(bits);
      if (!std::isnan(f)) return f;
    }
  };
  OpenList open;  // one list across streams, as in a worker's scratch
  long below = 0;
  long tiedSmallerId = 0;
  for (int stream = 0; stream < 300; ++stream) {
    const int ops = pick(1, 800);
    open.reset(static_cast<std::size_t>(ops));
    RefOpenList ref;
    const int regime = stream % 4;
    const int pushBias = pick(1, 3);  // 1: balanced, 3: mostly pushes
    float lastPopped = 0.0F;
    int lastId = 0;
    for (int op = 0; op < ops; ++op) {
      if (ref.empty() || pick(0, pushBias) != 0) {
        float f = 0.0F;
        int id = pick(0, 1) == 0 ? pick(0, 31) : INT_MAX - pick(0, 31);
        if (op > 0 && pick(0, 2) == 0) {
          // At or below the level: the popped f itself or anything under it.
          f = pick(0, 1) == 0 ? lastPopped
                              : lastPopped * static_cast<float>(pick(0, 99)) /
                                    100.0F;
          if (f == lastPopped && lastId > 0) {
            id = pick(0, lastId - 1);
            ++tiedSmallerId;
          }
          below += f < lastPopped ? 1 : 0;
        } else if (regime == 0) {
          f = pick(0, 3) == 0 ? 0.0F : 0.5F * static_cast<float>(pick(0, 128));
        } else if (regime == 1) {
          f = anyFloat();
        } else if (regime == 2) {
          f = 1024.0F + static_cast<float>(pick(0, 4096)) / 8.0F;
        } else {
          f = lastPopped + static_cast<float>(pick(0, 2));
        }
        ref.emplace(f, id);
        open.push(openKey(f, id));
      } else {
        ASSERT_FALSE(open.empty());
        const std::uint64_t top = open.popMin();
        ASSERT_EQ(openKeyF(top), ref.top().first) << "stream " << stream;
        ASSERT_EQ(openKeyId(top), ref.top().second) << "stream " << stream;
        lastPopped = ref.top().first;
        lastId = ref.top().second;
        ref.pop();
      }
    }
    while (!ref.empty()) {  // drain
      ASSERT_FALSE(open.empty());
      const std::uint64_t top = open.popMin();
      ASSERT_EQ(std::make_pair(openKeyF(top), openKeyId(top)), ref.top())
          << "stream " << stream;
      ref.pop();
    }
    ASSERT_TRUE(open.empty());
  }
  EXPECT_GT(below, 1000);  // the streams did push under the level
  EXPECT_GT(tiedSmallerId, 1000);
}

// ---- findPath against a textbook A* ----

struct ReferenceSearch {
  std::optional<std::vector<int>> path;
  long pops = 0;
};

/// Textbook A* over the same moves, costs and heuristic as
/// MazeRouter::findPath, on die-sized arrays and a std::priority_queue of
/// (f, id) pairs.
ReferenceSearch referenceAStar(const RoutingGrid& g, const MazeRouter& maze,
                               const std::vector<int>& sources,
                               const std::vector<int>& targets,
                               const Rect& window, db::Index net,
                               const MazeCosts& costs) {
  const float inf = std::numeric_limits<float>::infinity();
  const auto n = static_cast<std::size_t>(g.numNodes());
  std::vector<float> dist(n, inf);
  std::vector<int> parent(n, -1);
  std::vector<bool> isTarget(n, false);
  Rect tbox;
  for (int t : targets) {
    isTarget[std::size_t(t)] = true;
    tbox.expand(geom::Point{g.node(t).x, g.node(t).y});
  }
  const auto h = [&](int id) {
    const Node v = g.node(id);
    const geom::Coord dx = std::max({tbox.x.lo - v.x, v.x - tbox.x.hi, 0});
    const geom::Coord dy = std::max({tbox.y.lo - v.y, v.y - tbox.y.hi, 0});
    return kMetalCost * static_cast<float>(dx + dy);
  };
  RefOpenList open;
  const auto relax = [&](int id, float dg, int from) {
    if (dist[std::size_t(id)] <= dg) return;
    dist[std::size_t(id)] = dg;
    parent[std::size_t(id)] = from;
    open.emplace(dg + h(id), id);
  };
  ReferenceSearch out;
  for (int s : sources) relax(s, 0.0F, -1);
  int goal = -1;
  while (!open.empty()) {
    const auto [f, u] = open.top();
    open.pop();
    ++out.pops;
    if (f > dist[std::size_t(u)] + h(u) + 1e-5F) continue;  // stale
    if (isTarget[std::size_t(u)]) {
      goal = u;
      break;
    }
    const Node c = g.node(u);
    const auto move = [&](geom::Coord x, geom::Coord y, RLayer layer,
                          bool via) {
      if (!g.inside(x, y) || !window.contains(geom::Point{x, y})) return;
      const int v = g.id(Node{layer, x, y});
      float step = maze.nodeCost(v, net, costs);
      if (std::isinf(step)) return;
      if (via) {
        step += kViaCost;
        if (g.viaForbidden(x, y, net)) step += kForbiddenViaCost;
      }
      relax(v, dist[std::size_t(u)] + step, u);
    };
    if (c.layer == RLayer::M2) {
      move(c.x - 1, c.y, RLayer::M2, false);
      move(c.x + 1, c.y, RLayer::M2, false);
      move(c.x, c.y, RLayer::M3, true);
    } else {
      move(c.x, c.y - 1, RLayer::M3, false);
      move(c.x, c.y + 1, RLayer::M3, false);
      move(c.x, c.y, RLayer::M2, true);
    }
  }
  if (goal != -1) {
    std::vector<int> path;
    for (int v = goal; v != -1; v = parent[std::size_t(v)]) path.push_back(v);
    std::reverse(path.begin(), path.end());
    out.path = std::move(path);
  }
  return out;
}

// Random small designs under non-zero present, adjacency, history and
// forbidden-via costs. Costs are multiples of 0.5, so equal-f frontiers are
// common and the (f, id) tie-break decides both the path and the pop count.
TEST(Maze, MatchesTextbookAStarOnRandomDesigns) {
  std::mt19937 rng(20261018);
  const auto pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  MazeScratch scratch;  // shared across searches, as in a worker
  int found = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const geom::Coord w = pick(8, 28);
    Design d("astar", w, pick(1, 3), 5);
    const geom::Coord ht = d.gridHeight();
    const int nets = pick(2, 5);
    for (int n = 0; n < nets; ++n) d.addNet(numbered('n', n));
    for (int p = pick(0, 2 * nets); p > 0; --p) {
      const geom::Coord x = pick(0, w - 2);
      const geom::Coord y = pick(0, ht - 2);
      d.addPin(numbered('p', p), pick(0, nets - 1),
               Rect{Interval{x, x + pick(0, 1)}, Interval{y, y + pick(0, 1)}});
    }
    for (int b = pick(0, 3); b > 0; --b) {
      const geom::Coord x = pick(0, w - 3);
      const geom::Coord y = pick(0, ht - 2);
      d.addBlockage(pick(0, 1) ? Layer::M2 : Layer::M3,
                    Rect{Interval{x, x + pick(0, 2)},
                         Interval{y, y + pick(0, 1)}});
    }
    RoutingGrid g(d, nullptr);
    for (int iter = pick(1, 3); iter > 0; --iter) {
      for (int k = pick(0, g.numNodes() / 2); k > 0; --k)
        g.addOcc(pick(0, g.numNodes() - 1));
      g.accrueHistory();
    }
    for (int v = pick(0, w / 2); v > 0; --v)
      g.addVia(pick(0, w - 1), pick(0, ht - 1), pick(0, nets - 1));

    MazeRouter maze(g);
    MazeCosts costs;
    costs.present = 3.0F * static_cast<float>(pick(1, 4));
    costs.adjacency = 0.5F * costs.present;
    const db::Index net = pick(0, nets - 1);
    const Rect window{pick(0, w / 3), pick(0, ht / 3), pick(2 * w / 3, w - 1),
                      pick(2 * ht / 3, ht - 1)};
    std::vector<int> sources(static_cast<std::size_t>(pick(1, 3)));
    std::vector<int> targets(static_cast<std::size_t>(pick(1, 3)));
    for (int& s : sources) s = pick(0, g.numNodes() - 1);
    for (int& t : targets) t = pick(0, g.numNodes() - 1);

    const ReferenceSearch want =
        referenceAStar(g, maze, sources, targets, window, net, costs);
    scratch.pops = 0;
    // findPath appends: whatever the caller's vector holds stays in front.
    const std::vector<int> prefix(static_cast<std::size_t>(trial % 3), -1);
    std::vector<int> got = prefix;
    const bool ok =
        maze.findPath(sources, targets, window, net, costs, scratch, got);
    ASSERT_EQ(ok, want.path.has_value()) << "trial " << trial;
    std::vector<int> expected = prefix;
    if (ok)
      expected.insert(expected.end(), want.path->begin(), want.path->end());
    ASSERT_EQ(got, expected) << "trial " << trial;
    ASSERT_EQ(scratch.pops, want.pops) << "trial " << trial;
    found += ok ? 1 : 0;
  }
  EXPECT_GT(found, 30);  // most trials connect, so paths are compared
}

// ---- findPath against the global-id A* it replaced ----

/// nodeCost as it stood before the adjacency lookup moved to id offsets:
/// each same-lane neighbour is encoded from its coordinates.
float referenceNodeCost(const RoutingGrid& g, int id, db::Index net,
                        const MazeCosts& c) {
  const float inf = std::numeric_limits<float>::infinity();
  const Node n = g.node(id);
  if (n.layer == RLayer::M2) {
    const db::Index owner = g.owner(id);
    if (owner != geom::kInvalidIndex && owner != net) return inf;
  } else if (g.blocked(id)) {
    return inf;
  }
  const int occ = g.occupancy(id);
  if (c.hardBlockOccupied && occ > 0) return inf;
  float cost = kMetalCost + c.present * static_cast<float>(occ) +
               static_cast<float>(g.history(id));
  if (c.adjacency > 0.0F) {
    const auto occAt = [&](geom::Coord x, geom::Coord y) {
      return g.inside(x, y) ? g.occupancy(g.id(Node{n.layer, x, y})) : 0;
    };
    const int near = n.layer == RLayer::M2
                         ? occAt(n.x - 1, n.y) + occAt(n.x + 1, n.y)
                         : occAt(n.x, n.y - 1) + occAt(n.x, n.y + 1);
    cost += c.adjacency * static_cast<float>(near);
  }
  return cost;
}

/// `MazeRouter::findPath` as it stood before box-local ids, the 16-byte
/// cell and the two-level open list: separate window-local arrays with
/// `long` epochs, one 4-ary heap of `openKey` words over **global** ids,
/// global parents, and moves that decode and encode nodes through the grid
/// with an unclipped window test. Kept to pin that the rewrite pops the same
/// entries in the same order and lands on the same path.
struct GlobalIdReference {
  std::vector<float> dist;
  std::vector<int> parent;
  std::vector<long> stamp;
  std::vector<long> targetStamp;
  long epoch = 0;
  std::vector<std::uint64_t> heap;
  Rect box;
  int boxWidth = 0;
  int boxPlane = 0;
  long pops = 0;

  void bind(const Rect& b) {
    box = b;
    boxWidth = b.width();
    boxPlane = b.width() * b.height();
    const auto n = static_cast<std::size_t>(2 * boxPlane);
    if (dist.size() >= n) return;
    dist.resize(n, std::numeric_limits<float>::infinity());
    parent.resize(n, -1);
    stamp.resize(n, -1);
    targetStamp.resize(n, -1);
  }
  [[nodiscard]] std::size_t local(const Node& n) const {
    return static_cast<std::size_t>(static_cast<int>(n.layer) * boxPlane +
                                    (n.y - box.y.lo) * boxWidth +
                                    (n.x - box.x.lo));
  }

  bool findPath(const RoutingGrid& g, const std::vector<int>& sources,
                const std::vector<int>& targets, const Rect& window,
                db::Index net, const MazeCosts& costs,
                std::vector<int>& path) {
    const float inf = std::numeric_limits<float>::infinity();
    if (sources.empty() || targets.empty()) return false;
    Rect tbox;
    for (int t : targets) tbox.expand(geom::Point{g.node(t).x, g.node(t).y});
    Rect b = window;
    b.expand(tbox);
    for (int src : sources) b.expand(geom::Point{g.node(src).x, g.node(src).y});
    bind(geom::intersect(b, Rect{0, 0, g.width() - 1, g.height() - 1}));
    const long ep = ++epoch;
    for (int t : targets) targetStamp[local(g.node(t))] = ep;
    const auto heuristic = [&](const Node& n) {
      const geom::Coord dx = n.x < tbox.x.lo   ? tbox.x.lo - n.x
                             : n.x > tbox.x.hi ? n.x - tbox.x.hi
                                               : 0;
      const geom::Coord dy = n.y < tbox.y.lo   ? tbox.y.lo - n.y
                             : n.y > tbox.y.hi ? n.y - tbox.y.hi
                                               : 0;
      return kMetalCost * static_cast<float>(dx + dy);
    };
    heap.clear();
    const auto reached = [&](std::size_t i, float gv) {
      return stamp[i] == ep && dist[i] <= gv;
    };
    const auto relax = [&](int id, const Node& n, std::size_t i, float gv,
                           int from) {
      if (reached(i, gv)) return;
      stamp[i] = ep;
      dist[i] = gv;
      parent[i] = from;
      heap.push_back(openKey(gv + heuristic(n), id));
      openSiftUp(heap.data(), heap.size());
    };
    for (int src : sources) relax(src, g.node(src), local(g.node(src)), 0.0F, -1);
    int goal = -1;
    while (!heap.empty()) {
      const std::uint64_t top = heap.front();
      openSiftDown(heap.data(), heap.size());
      heap.pop_back();
      const float f = openKeyF(top);
      const int u = openKeyId(top);
      ++pops;
      const Node n = g.node(u);
      const std::size_t ui = local(n);
      if (stamp[ui] != ep || f > dist[ui] + heuristic(n) + 1e-5F) continue;
      if (targetStamp[ui] == ep) {
        goal = u;
        break;
      }
      const float gu = dist[ui];
      const auto tryMove = [&](geom::Coord x, geom::Coord y, RLayer layer,
                               bool viaMove) {
        if (!g.inside(x, y) || !window.contains(geom::Point{x, y})) return;
        const Node v{layer, x, y};
        const std::size_t vi = local(v);
        if (reached(vi, gu + (viaMove ? kMetalCost + kViaCost : kMetalCost)))
          return;
        const int vid = g.id(v);
        float step = referenceNodeCost(g, vid, net, costs);
        if (step == inf) return;
        if (viaMove) {
          step += kViaCost;
          if (g.viaForbidden(x, y, net)) step += kForbiddenViaCost;
        }
        relax(vid, v, vi, gu + step, u);
      };
      if (n.layer == RLayer::M2) {
        tryMove(n.x - 1, n.y, RLayer::M2, false);
        tryMove(n.x + 1, n.y, RLayer::M2, false);
        tryMove(n.x, n.y, RLayer::M3, true);
      } else {
        tryMove(n.x, n.y - 1, RLayer::M3, false);
        tryMove(n.x, n.y + 1, RLayer::M3, false);
        tryMove(n.x, n.y, RLayer::M2, true);
      }
    }
    if (goal == -1) return false;
    std::vector<int> rev;
    for (int v = goal; v != -1; v = parent[local(g.node(v))]) rev.push_back(v);
    path.insert(path.end(), rev.rbegin(), rev.rend());
    return true;
  }
};

/// A window for `SearchesMatchGlobalIdReference`: random, at or past a die
/// edge, one column or one track wide, the whole die, or off the die.
Rect randomWindow(const std::function<int(int, int)>& pick, geom::Coord w,
                  geom::Coord h) {
  switch (pick(0, 5)) {
    case 0: {  // crosses a die edge
      const geom::Coord x = pick(-3, w - 1);
      const geom::Coord y = pick(-3, h - 1);
      return {x, y, x + pick(0, w + 3), y + pick(0, h + 3)};
    }
    case 1: {  // one column
      const geom::Coord x = pick(0, w - 1);
      return {x, pick(-2, h / 2), x, pick(h / 2, h + 1)};
    }
    case 2: {  // one track
      const geom::Coord y = pick(0, h - 1);
      return {pick(-2, w / 2), y, pick(w / 2, w + 1), y};
    }
    case 3:
      return {0, 0, w - 1, h - 1};
    case 4:  // entirely off the die: only a source that is a target connects
      return {w + 1, 0, w + 4, h - 1};
    default: {
      const geom::Coord x = pick(0, w - 1);
      const geom::Coord y = pick(0, h - 1);
      return {x, y, pick(x, w - 1), pick(y, h - 1)};
    }
  }
}

// Random small grids with random owners (pins, access intervals and the
// contested nodes where they disagree), blockages, occupancy, history and
// vias, under random present, adjacency and hard-block costs; windows at
// and past the die edges, one column or one track wide (so 1-wide and
// 1-tall boxes, on dies down to one column), and sources and targets that
// often lie outside the window. One scratch serves every search, as in a
// worker. Each search must find the same path with the same pop count as
// the global-id reference.
TEST(Maze, SearchesMatchGlobalIdReference) {
  std::mt19937 rng(20261022);
  const std::function<int(int, int)> pick = [&rng](int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng);
  };
  MazeScratch scratch;
  GlobalIdReference ref;
  int found = 0;
  int oneWide = 0;
  int oneTall = 0;
  int outside = 0;
  for (int trial = 0; trial < 600; ++trial) {
    const geom::Coord w = pick(0, 5) == 0 ? pick(1, 2) : pick(3, 24);
    Design d("ref", w, pick(1, 3), pick(0, 3) == 0 ? 1 : 5);
    const geom::Coord ht = d.gridHeight();
    const int nets = pick(1, 4);
    for (int n = 0; n < nets; ++n) d.addNet(numbered('n', n));
    for (int p = pick(0, 2 * nets); p > 0; --p) {
      const geom::Coord x = pick(0, w - 1);
      const geom::Coord y = pick(0, ht - 1);
      d.addPin(numbered('p', p), pick(0, nets - 1),
               Rect{Interval{x, std::min(w - 1, x + pick(0, 1))},
                    Interval{y, std::min(ht - 1, y + pick(0, 1))}});
    }
    for (int b = pick(0, 3); b > 0; --b) {
      const geom::Coord x = pick(0, w - 1);
      const geom::Coord y = pick(0, ht - 1);
      d.addBlockage(pick(0, 1) ? Layer::M2 : Layer::M3,
                    Rect{Interval{x, std::min(w - 1, x + pick(0, 2))},
                         Interval{y, std::min(ht - 1, y + pick(0, 1))}});
    }
    core::PinAccessPlan plan;
    plan.routes.assign(d.pins().size(), core::PinRoute{});
    for (core::PinRoute& r : plan.routes) {
      if (pick(0, 2) == 0) continue;
      const geom::Coord lo = pick(0, w - 1);
      r = core::PinRoute{pick(0, ht - 1),
                         Interval{lo, std::min(w - 1, lo + pick(0, 5))}};
    }
    RoutingGrid g(d, &plan);
    for (int iter = pick(0, 3); iter > 0; --iter) {
      for (int k = pick(0, g.numNodes() / 2); k > 0; --k)
        g.addOcc(pick(0, g.numNodes() - 1));
      g.accrueHistory();
    }
    for (int v = pick(0, w / 2 + 1); v > 0; --v)
      g.addVia(pick(0, w - 1), pick(0, ht - 1), pick(0, nets - 1));

    MazeRouter maze(g);
    MazeCosts costs;
    costs.present = 0.5F * static_cast<float>(pick(0, 12));
    costs.adjacency = pick(0, 1) == 0 ? 0.0F : 0.5F * static_cast<float>(pick(1, 6));
    costs.hardBlockOccupied = pick(0, 4) == 0;
    const db::Index net = pick(0, nets - 1);
    const Rect window = randomWindow(pick, w, ht);
    const Rect onDie = geom::intersect(window, Rect{0, 0, w - 1, ht - 1});
    auto node = [&] {
      // Mostly inside the window when it has any die nodes, else anywhere.
      if (!onDie.empty() && pick(0, 2) != 0)
        return g.id(Node{pick(0, 1) ? RLayer::M2 : RLayer::M3,
                         pick(onDie.x.lo, onDie.x.hi),
                         pick(onDie.y.lo, onDie.y.hi)});
      return pick(0, g.numNodes() - 1);
    };
    std::vector<int> sources(static_cast<std::size_t>(pick(1, 3)));
    std::vector<int> targets(static_cast<std::size_t>(pick(1, 3)));
    for (int& v : sources) v = node();
    for (int& v : targets) v = node();
    if (pick(0, 9) == 0) targets.push_back(sources.front());

    Rect hull = window;
    for (const std::vector<int>* ids : {&sources, &targets})
      for (int v : *ids) {
        hull.expand(geom::Point{g.node(v).x, g.node(v).y});
        outside += onDie.contains(geom::Point{g.node(v).x, g.node(v).y}) ? 0 : 1;
      }
    hull = geom::intersect(hull, Rect{0, 0, w - 1, ht - 1});
    oneWide += hull.width() == 1 ? 1 : 0;
    oneTall += hull.height() == 1 ? 1 : 0;

    std::vector<int> want;
    ref.pops = 0;
    const bool wantOk =
        ref.findPath(g, sources, targets, window, net, costs, want);
    std::vector<int> got;
    scratch.pops = 0;
    const bool ok =
        maze.findPath(sources, targets, window, net, costs, scratch, got);
    ASSERT_EQ(ok, wantOk) << "trial " << trial;
    ASSERT_EQ(got, want) << "trial " << trial;
    ASSERT_EQ(scratch.pops, ref.pops) << "trial " << trial;
    found += ok ? 1 : 0;
  }
  EXPECT_GT(found, 200);
  EXPECT_GT(oneWide, 20);
  EXPECT_GT(oneTall, 20);
  EXPECT_GT(outside, 200);
}

// ---- epoch wrap-around ----

// A 32-bit cell epoch wraps after 2^32 searches. The wrap clears every
// stamp, so the searches right after it (epochs 1, 2, 3 again) cannot read
// the stamps that the first searches of the arena left at those epochs:
// each reversed search below would otherwise meet its own source as a stale
// target of epoch 1, 2 or 3. Every search must match a fresh arena.
TEST(Maze, EpochWrapClearsStaleStamps) {
  Design d = openField();
  RoutingGrid g(d, nullptr);
  for (geom::Coord x = 4; x <= 12; ++x) g.addOcc(g.id(Node{RLayer::M2, x, 3}));
  const MazeRouter maze(g);
  MazeCosts costs;
  costs.present = 4.0F;
  struct Search {
    int source, target;
    Rect window;
  };
  const std::vector<Search> first = {
      {g.id(Node{RLayer::M2, 1, 3}), g.id(Node{RLayer::M2, 20, 3}),
       fullWindow(g)},
      {g.id(Node{RLayer::M2, 2, 1}), g.id(Node{RLayer::M3, 9, 8}),
       Rect{0, 0, 15, 9}},
      {g.id(Node{RLayer::M2, 25, 6}), g.id(Node{RLayer::M2, 5, 2}),
       Rect{3, 1, 28, 7}},
  };
  std::vector<Search> order = first;
  order.push_back(first[0]);  // at the last epoch before the wrap
  for (const Search& q : first)
    order.push_back(Search{q.target, q.source, q.window});

  MazeScratch scratch;
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (k == first.size()) scratch.epoch = ~std::uint32_t{0} - 1;
    const Search& q = order[k];
    std::vector<int> got;
    scratch.pops = 0;
    ASSERT_TRUE(maze.findPath({q.source}, {q.target}, q.window, 0, costs,
                              scratch, got))
        << "search " << k;
    MazeScratch fresh;
    std::vector<int> want;
    ASSERT_TRUE(maze.findPath({q.source}, {q.target}, q.window, 0, costs,
                              fresh, want));
    EXPECT_EQ(got, want) << "search " << k;
    EXPECT_EQ(scratch.pops, fresh.pops) << "search " << k;
  }
  EXPECT_EQ(scratch.epoch, 3u);  // wrapped, and counted on from 1
}

// The tree epoch wraps the same way: the stamp of every node is cleared, so
// a node stamped at epoch 1 long ago is not "in the tree" at the new epoch 1.
TEST(Maze, TreeEpochWrapClearsStaleStamps) {
  MazeScratch scratch;
  scratch.bind(Rect{0, 0, 9, 4});
  EXPECT_EQ(scratch.nextTreeEpoch(), 1u);
  for (std::uint32_t& t : scratch.treeStamp) t = 1;
  scratch.treeEpoch = ~std::uint32_t{0} - 1;
  EXPECT_EQ(scratch.nextTreeEpoch(), ~std::uint32_t{0});
  EXPECT_EQ(scratch.nextTreeEpoch(), 1u);
  for (const std::uint32_t t : scratch.treeStamp) EXPECT_NE(t, 1u);
}

// Box-local rows decode without division for every offset of boxes of
// every width up to 64, 1 included.
TEST(Maze, BoxRowDecodeMatchesDivision) {
  MazeScratch scratch;
  for (geom::Coord bw = 1; bw <= 64; ++bw) {
    scratch.bind(Rect{5, 7, 5 + bw - 1, 7 + 40});
    for (std::uint32_t rem = 0; rem < static_cast<std::uint32_t>(scratch.boxPlane); ++rem)
      ASSERT_EQ(scratch.row(rem), static_cast<geom::Coord>(rem) / bw)
          << "width " << bw << " offset " << rem;
  }
}

}  // namespace
}  // namespace cpr::route
