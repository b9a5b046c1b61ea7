#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/optimizer.h"
#include "gen/generator.h"
#include "lefdef/def_io.h"
#include "route/cpr.h"
#include "route/def_export.h"
#include "route/negotiation_router.h"
#include "viz/ascii.h"
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

TEST(Svg, WindowClipsOutput) {
  const db::Design d = smallDesign();
  SvgOptions narrow;
  narrow.window = geom::Rect{0, 0, 8, 9};
  std::ostringstream os;
  renderSvg(d, nullptr, nullptr, os, narrow);
  const std::string svg = os.str();
  EXPECT_NE(svg.find("a1"), std::string::npos);   // inside window
  EXPECT_EQ(svg.find(">a2<"), std::string::npos);  // outside window
}

TEST(Ascii, RendersPinsBlockagesAndIntervals) {
  const db::Design d = smallDesign();
  const core::PinAccessPlan plan = core::optimizePinAccess(d);
  const std::string art = renderPanelAscii(d, 0, &plan);
  EXPECT_NE(art.find('a'), std::string::npos);  // net A pins
  EXPECT_NE(art.find('b'), std::string::npos);
  EXPECT_NE(art.find('#'), std::string::npos);  // blockage
  EXPECT_NE(art.find('='), std::string::npos);  // intervals
  // One line per track, each 4 (prefix) + 30 (width) + newline chars.
  EXPECT_EQ(art.size(), 10u * (4 + 30 + 1));
}

TEST(Ascii, NoPlanMeansNoIntervalGlyphs) {
  const db::Design d = smallDesign();
  const std::string art = renderPanelAscii(d, 0, nullptr);
  EXPECT_EQ(art.find('='), std::string::npos);
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
