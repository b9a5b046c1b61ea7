#include <gtest/gtest.h>

#include "route/maze.h"

namespace cpr::route {
namespace {

using db::Design;
using db::Layer;
using geom::Interval;
using geom::Rect;

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
  const auto path = maze.findPath({s}, {t}, fullWindow(g), 0, {}, scratch);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 11u);  // straight run of 11 nodes
  EXPECT_EQ(path->front(), s);
  EXPECT_EQ(path->back(), t);
}

TEST(Maze, SourceIsTargetYieldsTrivialPath) {
  Design d = openField();
  RoutingGrid g(d, nullptr);
  MazeRouter maze(g);
  MazeScratch scratch;
  const int s = g.id(Node{RLayer::M2, 4, 4});
  const auto path = maze.findPath({s}, {s}, fullWindow(g), 0, {}, scratch);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 1u);
}

TEST(Maze, TrackChangeUsesVias) {
  Design d = openField();
  RoutingGrid g(d, nullptr);
  MazeRouter maze(g);
  MazeScratch scratch;
  const int s = g.id(Node{RLayer::M2, 5, 2});
  const int t = g.id(Node{RLayer::M2, 5, 7});
  const auto path = maze.findPath({s}, {t}, fullWindow(g), 0, {}, scratch);
  ASSERT_TRUE(path.has_value());
  // M2 -> via -> M3 run -> via -> M2: two layer changes.
  int layerChanges = 0;
  for (std::size_t i = 0; i + 1 < path->size(); ++i) {
    if ((g.node((*path)[i]).layer) != (g.node((*path)[i + 1]).layer))
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
  const auto path = maze.findPath({s}, {t}, fullWindow(g), 0, {}, scratch);
  ASSERT_TRUE(path.has_value());
  for (std::size_t i = 0; i + 1 < path->size(); ++i) {
    const Node u = g.node((*path)[i]);
    const Node v = g.node((*path)[i + 1]);
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
  const auto path = maze.findPath({s}, {t}, fullWindow(g), a, {}, scratch);
  ASSERT_TRUE(path.has_value());
  for (int id : *path) {
    const db::Index owner = id < g.planeSize() ? g.pinNetAt(id) : geom::kInvalidIndex;
    EXPECT_TRUE(owner == geom::kInvalidIndex || owner == a);
  }
  // Net B itself may use its own projection.
  const auto own = maze.findPath({g.id(Node{RLayer::M2, 14, 4})},
                                 {g.id(Node{RLayer::M2, 15, 4})},
                                 fullWindow(g), b, {}, scratch);
  ASSERT_TRUE(own.has_value());
  EXPECT_EQ(own->size(), 2u);
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
  const auto path = maze.findPath({s}, {t}, fullWindow(g), 0, hard, scratch);
  ASSERT_TRUE(path.has_value());
  for (int id : *path) EXPECT_EQ(g.occupancy(id), 0);
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
  EXPECT_FALSE(maze.findPath({s}, {t}, narrow, 0, {}, scratch).has_value());
  EXPECT_TRUE(
      maze.findPath({s}, {t}, fullWindow(g2), 0, {}, scratch).has_value());
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
  const auto path = maze.findPath({s}, {t}, window, 0, {}, scratch);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(path->size(), 7u);  // 9..15 on track 2
  EXPECT_EQ(path->front(), s);
  EXPECT_EQ(path->back(), t);
  // A source that is also a target needs no move at all, window or not.
  const int far = g.id(Node{RLayer::M3, 2, 8});
  const auto trivial = maze.findPath({far}, {far}, window, 0, {}, scratch);
  ASSERT_TRUE(trivial.has_value());
  EXPECT_EQ(*trivial, std::vector<int>{far});
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
  const auto path = maze.findPath({s}, {t}, fullWindow(g), 0, costs, scratch);
  ASSERT_TRUE(path.has_value());
  int shared = 0;
  for (int id : *path) shared += g.occupancy(id) > 0 ? 1 : 0;
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
  const auto path = maze.findPath({s}, {t}, fullWindow(g), 0, {}, scratch);
  ASSERT_TRUE(path.has_value());
  for (std::size_t i = 0; i + 1 < path->size(); ++i) {
    const Node u = g.node((*path)[i]);
    const Node v = g.node((*path)[i + 1]);
    if (u.layer != v.layer) {
      // The chosen via sites must not be adjacent to net 1's via.
      EXPECT_FALSE(g.viaForbidden(u.x, u.y, 0))
          << "via at " << u.x << "," << u.y;
    }
  }
}

}  // namespace
}  // namespace cpr::route
