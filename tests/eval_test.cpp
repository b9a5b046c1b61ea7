#include <gtest/gtest.h>

#include "eval/metrics.h"

namespace cpr::eval {
namespace {

db::Design twoNetDesign() {
  db::Design d("m", 30, 1, 10);
  const db::Index a = d.addNet("A");
  const db::Index b = d.addNet("B");
  d.addPin("a1", a, {geom::Interval::point(2), geom::Interval{2, 4}});
  d.addPin("a2", a, {geom::Interval::point(12), geom::Interval{2, 4}});
  d.addPin("b1", b, {geom::Interval::point(5), geom::Interval{6, 8}});
  d.addPin("b2", b, {geom::Interval::point(25), geom::Interval{6, 8}});
  return d;
}

/// A routed net's shipped geometry: one M2 run of `wirelength` grid edges
/// and `vias` vias.
route::NetGeometry routed(long wirelength, int vias) {
  route::NetGeometry g;
  g.segments.push_back(route::RouteSegment{
      false, 3, geom::Interval{0, static_cast<geom::Coord>(wirelength)}});
  g.vias.assign(static_cast<std::size_t>(vias), route::ViaSite{});
  return g;
}

TEST(Metrics, AllCleanSumsRoutedQuantities) {
  const db::Design d = twoNetDesign();
  route::RoutingResult r;
  r.geometry = {routed(11, 3), routed(21, 4)};
  r.dirty = {0, 0};
  r.seconds = 1.5;
  const Metrics m = summarize(d, r, 0.5);
  EXPECT_EQ(m.totalNets, 2);
  EXPECT_EQ(m.routedClean, 2);
  EXPECT_DOUBLE_EQ(m.routability, 100.0);
  EXPECT_EQ(m.vias, 7);
  EXPECT_EQ(m.wirelength, 32);
  EXPECT_DOUBLE_EQ(m.seconds, 2.0);  // routing + extra (pin access) time
}

TEST(Metrics, DirtyNetCountsAsUnroutedWithHpwl) {
  const db::Design d = twoNetDesign();
  route::RoutingResult r;
  // Net A routed+clean; net B routed but dirty.
  r.geometry = {routed(11, 3), routed(21, 4)};
  r.dirty = {0, 1};
  const Metrics m = summarize(d, r);
  EXPECT_EQ(m.routedClean, 1);
  EXPECT_DOUBLE_EQ(m.routability, 50.0);
  EXPECT_EQ(m.vias, 3);  // only the clean net's vias count
  // WL = 11 (clean grid WL) + HPWL of net B (|25-5| + |8-6| = 22).
  EXPECT_EQ(m.wirelength, 11 + 22);
}

TEST(Metrics, UnroutedNetUsesHpwl) {
  const db::Design d = twoNetDesign();
  route::RoutingResult r;
  r.geometry = {route::NetGeometry{}, routed(21, 4)};
  r.dirty = {0, 0};
  const Metrics m = summarize(d, r);
  // Net A HPWL = |12-2| + |4-2| = 12.
  EXPECT_EQ(m.wirelength, 21 + 12);
  EXPECT_EQ(m.routedClean, 1);
}

TEST(Metrics, EmptyDesignIsZero) {
  const db::Design d("empty", 10, 1, 10);
  route::RoutingResult r;
  const Metrics m = summarize(d, r);
  EXPECT_EQ(m.totalNets, 0);
  EXPECT_DOUBLE_EQ(m.routability, 0.0);
}

TEST(Metrics, TableRowFormatsAllColumns) {
  Metrics m;
  m.routability = 97.25;
  m.vias = 4907;
  m.wirelength = 40465;
  m.seconds = 2.01;
  const std::string row = tableRow("ecc", m);
  EXPECT_NE(row.find("ecc"), std::string::npos);
  EXPECT_NE(row.find("97.25"), std::string::npos);
  EXPECT_NE(row.find("4907"), std::string::npos);
  EXPECT_NE(row.find("40465"), std::string::npos);
  EXPECT_NE(row.find("2.01"), std::string::npos);
}

}  // namespace
}  // namespace cpr::eval
