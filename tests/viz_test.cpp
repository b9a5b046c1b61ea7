#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/optimizer.h"
#include "gen/generator.h"
#include "lefdef/def_io.h"
#include "route/cpr.h"
#include "route/def_export.h"
#include "route/negotiation_router.h"
#include "viz/svg.h"

namespace cpr::viz {
namespace {

db::Design smallDesign() {
  db::Design d("viz", 30, 1, 10);
  const db::Index a = d.addNet("A");
  const db::Index b = d.addNet("B");
  d.addPin("a1", a, {geom::Interval::point(4), geom::Interval{2, 4}});
  d.addPin("a2", a, {geom::Interval::point(16), geom::Interval{2, 4}});
  d.addPin("b1", b, {geom::Interval::point(9), geom::Interval{5, 7}});
  d.addPin("b2", b, {geom::Interval::point(22), geom::Interval{5, 7}});
  d.addBlockage(db::Layer::M2, {geom::Interval{0, 6}, geom::Interval{8, 8}});
  return d;
}

TEST(Svg, RendersDesignOnly) {
  const db::Design d = smallDesign();
  std::ostringstream os;
  renderSvg(d, nullptr, nullptr, os);
  const std::string svg = os.str();
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("</svg>"), std::string::npos);
  EXPECT_NE(svg.find("a1"), std::string::npos);  // pin labels
  EXPECT_NE(svg.find("b2"), std::string::npos);
  // 4 pins + die + rows + blockage: at least 6 rects.
  std::size_t rects = 0;
  for (std::size_t p = svg.find("<rect"); p != std::string::npos;
       p = svg.find("<rect", p + 1)) {
    ++rects;
  }
  EXPECT_GE(rects, 6u);
}

TEST(Svg, PlanAddsIntervalStrips) {
  const db::Design d = smallDesign();
  std::ostringstream without;
  renderSvg(d, nullptr, nullptr, without);
  const core::PinAccessPlan plan = core::optimizePinAccess(d);
  std::ostringstream with;
  renderSvg(d, &plan, nullptr, with);
  EXPECT_GT(with.str().size(), without.str().size());
}

TEST(Svg, GeometryAddsSegmentsAndVias) {
  const db::Design d = smallDesign();
  const route::RoutingResult r = route::routeNegotiated(d, nullptr);
  ASSERT_EQ(r.geometry.size(), d.nets().size());
  std::ostringstream os;
  renderSvg(d, nullptr, &r.geometry, os);
  EXPECT_NE(os.str().find("<circle"), std::string::npos);  // vias
}

TEST(RoutedDef, UnroutedDesignIsTheDesignDef) {
  // With no net routed, the routed DEF is exactly the design's DEF, so it
  // still carries the blockages the routes were found around.
  gen::GenOptions o;
  o.seed = 5;
  o.width = 80;
  o.numRows = 3;
  const db::Design d = gen::generate(o);
  ASSERT_FALSE(d.blockages().empty());
  std::ostringstream routed;
  route::writeRoutedDef(d, std::vector<route::NetGeometry>(d.nets().size()),
                        routed);
  std::ostringstream plain;
  lefdef::writeDef(d, plain);
  EXPECT_EQ(routed.str(), plain.str());
  std::istringstream back(routed.str());
  const db::Design read = lefdef::readDef(back);
  ASSERT_EQ(read.blockages().size(), d.blockages().size());
  for (std::size_t i = 0; i < d.blockages().size(); ++i) {
    EXPECT_EQ(read.blockages()[i].layer, d.blockages()[i].layer);
    EXPECT_EQ(read.blockages()[i].shape, d.blockages()[i].shape);
  }
}

/// Routed DEF export draws the shipped geometry of every scheme.
class RoutedDefScheme : public ::testing::TestWithParam<route::Scheme> {};

TEST_P(RoutedDefScheme, EmitsRoutedStatements) {
  const db::Design d = smallDesign();
  const route::RoutingResult r = route::routeScheme(d, GetParam()).routing;
  std::ostringstream os;
  route::writeRoutedDef(d, r.geometry, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("+ ROUTED"), std::string::npos);
  EXPECT_NE(text.find("VIA V1"), std::string::npos);
  EXPECT_NE(text.find("M2 ("), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(Schemes, RoutedDefScheme,
                         ::testing::Values(route::Scheme::Cpr,
                                           route::Scheme::NoPao,
                                           route::Scheme::Seq),
                         [](const ::testing::TestParamInfo<route::Scheme>& i) {
                           return std::string(route::schemeName(i.param));
                         });

}  // namespace
}  // namespace cpr::viz
