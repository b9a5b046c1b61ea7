/// Signoff checks the geometry the router ships. On the ecc suite design,
/// for every scheme at default options: the result carries one geometry
/// entry and one dirty flag per net, some nets are routed, and an
/// independent re-run of the DRC over `result.geometry` reproduces the
/// `drc.*` counters and every net's dirty flag.
#include <gtest/gtest.h>

#include <string>

#include "gen/generator.h"
#include "obs/names.h"
#include "route/cpr.h"
#include "route/drc.h"

namespace cpr::route {
namespace {

const db::Design& ecc() {
  static const db::Design d = gen::makeSuiteDesign(gen::suiteSpec("ecc"), 7);
  return d;
}

class Signoff : public ::testing::TestWithParam<Scheme> {};

TEST_P(Signoff, ResultGeometryIsWhatTheDrcChecked) {
  const RoutingResult r = routeScheme(ecc(), GetParam()).routing;
  ASSERT_EQ(r.geometry.size(), ecc().nets().size());
  ASSERT_EQ(r.dirty.size(), r.geometry.size());
  long routed = 0;
  for (const NetGeometry& g : r.geometry) routed += g.routed() ? 1 : 0;
  EXPECT_GT(routed, 0);

  obs::Collector recheck;
  const DrcReport report = checkDesignRules(r.geometry, &recheck);
  EXPECT_EQ(report.violations, r.drcViolations());
  for (const std::string_view name :
       {obs::names::kDrcViolations, obs::names::kDrcLineEnd,
        obs::names::kDrcViaSpacing, obs::names::kDrcDirtyNets}) {
    EXPECT_EQ(recheck.counter(name), r.stats.counter(name)) << name;
  }
  EXPECT_EQ(report.dirty, r.dirty);
}

INSTANTIATE_TEST_SUITE_P(Schemes, Signoff,
                         ::testing::Values(Scheme::Cpr, Scheme::NoPao,
                                           Scheme::Seq),
                         [](const ::testing::TestParamInfo<Scheme>& info) {
                           return std::string(schemeName(info.param));
                         });

}  // namespace
}  // namespace cpr::route
