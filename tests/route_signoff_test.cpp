/// Signoff checks the geometry the router ships. On the ecc suite design,
/// for every scheme at default options: the result carries one geometry
/// entry per net, a net's geometry is empty exactly when the net is
/// unrouted, and an independent re-run of the DRC over `result.geometry`
/// reproduces the `drc.*` counters and every net's `clean` flag.
#include <gtest/gtest.h>

#include <string>

#include "gen/generator.h"
#include "obs/names.h"
#include "route/cpr.h"
#include "route/drc.h"
#include "route/negotiation_router.h"
#include "route/sequential_router.h"

namespace cpr::route {
namespace {

const db::Design& ecc() {
  static const db::Design d = gen::makeSuiteDesign(gen::suiteSpec("ecc"), 7);
  return d;
}

RoutingResult routeScheme(const std::string& scheme) {
  if (scheme == "seq") return routeSequential(ecc());
  if (scheme == "nopao") return routeNegotiated(ecc(), nullptr);
  return routeCpr(ecc()).routing;
}

class Signoff : public ::testing::TestWithParam<std::string> {};

TEST_P(Signoff, ResultGeometryIsWhatTheDrcChecked) {
  const RoutingResult r = routeScheme(GetParam());
  ASSERT_EQ(r.nets.size(), ecc().nets().size());
  ASSERT_EQ(r.geometry.size(), r.nets.size());
  long routed = 0;
  for (std::size_t n = 0; n < r.nets.size(); ++n) {
    const bool empty =
        r.geometry[n].segments.empty() && r.geometry[n].vias.empty();
    EXPECT_EQ(empty, !r.nets[n].routed) << "net " << n;
    routed += r.nets[n].routed ? 1 : 0;
  }
  EXPECT_GT(routed, 0);

  obs::Collector recheck;
  const DrcReport report = checkDesignRules(r.geometry, {}, &recheck);
  EXPECT_EQ(report.violations, r.drcViolations());
  for (const std::string_view name :
       {obs::names::kDrcViolations, obs::names::kDrcLineEnd,
        obs::names::kDrcViaSpacing, obs::names::kDrcDirtyNets}) {
    EXPECT_EQ(recheck.counter(name), r.stats.counter(name)) << name;
  }
  for (std::size_t n = 0; n < r.nets.size(); ++n) {
    EXPECT_EQ(r.nets[n].clean, r.nets[n].routed && !report.dirty[n])
        << "net " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, Signoff,
                         ::testing::Values("cpr", "nopao", "seq"));

}  // namespace
}  // namespace cpr::route
