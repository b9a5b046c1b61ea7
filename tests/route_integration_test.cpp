#include <gtest/gtest.h>

#include "eval/metrics.h"
#include "gen/generator.h"
#include "route/cpr.h"
#include "route/sequential_router.h"

namespace cpr::route {
namespace {

db::Design mediumDesign(std::uint64_t seed = 3) {
  gen::GenOptions o;
  o.seed = seed;
  o.width = 160;
  o.numRows = 6;
  o.pinDensity = 0.2;
  o.minPinsPerNet = 2;
  o.maxPinsPerNet = 4;
  o.minPinTracks = 2;
  o.maxPinTracks = 4;
  o.maxNetSpan = 40;
  o.m3Pitch = 3;
  o.blockagesPerRow = 4;
  return gen::generate(o);
}

void checkInvariants(const db::Design& d, const RoutingResult& r) {
  ASSERT_EQ(r.geometry.size(), d.nets().size());
  ASSERT_EQ(r.dirty.size(), d.nets().size());
  for (std::size_t n = 0; n < r.geometry.size(); ++n) {
    if (r.geometry[n].routed()) {
      // At least one V1 per pin of a 2+-pin net.
      EXPECT_GE(r.geometry[n].vias.size(), 2U);
    } else {
      EXPECT_EQ(r.dirty[n], 0);  // no metal, nothing to violate
    }
  }
  EXPECT_GE(r.seconds, 0.0);
}

TEST(Integration, CprProducesMostlyCleanRouting) {
  const db::Design d = mediumDesign();
  const CprResult r = routeCpr(d);
  checkInvariants(d, r.routing);
  const eval::Metrics m = eval::summarize(d, r.routing, r.pinAccessSeconds);
  EXPECT_GT(m.routability, 90.0);
  EXPECT_EQ(r.plan.routes.size(), d.pins().size());
  EXPECT_EQ(r.plan.unassignedPins(), 0);
}

TEST(Integration, NoPaoRoutes) {
  const db::Design d = mediumDesign();
  const RoutingResult r = routeNegotiated(d, nullptr);
  checkInvariants(d, r);
  EXPECT_GT(eval::summarize(d, r).routability, 85.0);
}

TEST(Integration, SequentialRoutes) {
  const db::Design d = mediumDesign();
  const RoutingResult r = routeSequential(d);
  checkInvariants(d, r);
  EXPECT_GT(eval::summarize(d, r).routability, 85.0);
}

TEST(Integration, PinAccessOptimizationReducesInitialCongestion) {
  // The paper's Fig. 7(b) claim, at test scale: congested grids before
  // rip-up & reroute drop substantially with pin access optimization.
  const db::Design d = mediumDesign(5);
  const CprResult cpr_ = routeCpr(d);
  const RoutingResult nopao = routeNegotiated(d, nullptr);
  EXPECT_LT(cpr_.routing.congestedGridsBeforeRrr(),
            nopao.congestedGridsBeforeRrr());
}

TEST(Integration, PinAccessOptimizationReducesVias) {
  const db::Design d = mediumDesign(7);
  const CprResult cpr_ = routeCpr(d);
  const RoutingResult nopao = routeNegotiated(d, nullptr);
  const eval::Metrics mc = eval::summarize(d, cpr_.routing);
  const eval::Metrics mn = eval::summarize(d, nopao);
  EXPECT_LT(mc.vias, mn.vias);
}

TEST(Integration, ExactPinAccessAlsoRoutes) {
  // Small design so the ILP node budget stays reasonable.
  gen::GenOptions o;
  o.seed = 9;
  o.width = 60;
  o.numRows = 2;
  o.pinDensity = 0.15;
  o.maxNetSpan = 30;
  const db::Design d = gen::generate(o);
  CprOptions opts;
  opts.pinAccess.solve.method = core::Method::Ilp;
  opts.pinAccess.solve.ilp.maxNodes = 200000;
  const CprResult r = routeCpr(d, opts);
  checkInvariants(d, r.routing);
  EXPECT_GT(eval::summarize(d, r.routing).routability, 90.0);
}

TEST(Integration, DeterministicAcrossRuns) {
  const db::Design d = mediumDesign(11);
  const CprResult a = routeCpr(d);
  const CprResult b = routeCpr(d);
  const eval::Metrics ma = eval::summarize(d, a.routing);
  const eval::Metrics mb = eval::summarize(d, b.routing);
  EXPECT_EQ(ma.routedClean, mb.routedClean);
  EXPECT_EQ(ma.vias, mb.vias);
  EXPECT_EQ(ma.wirelength, mb.wirelength);
}

TEST(Integration, MetricsCountDirtyNetsAsUnrouted) {
  const db::Design d = mediumDesign(13);
  const RoutingResult r = routeNegotiated(d, nullptr);
  const eval::Metrics m = eval::summarize(d, r);
  int clean = 0;
  for (std::size_t n = 0; n < r.geometry.size(); ++n)
    clean += r.clean(n) ? 1 : 0;
  EXPECT_EQ(m.routedClean, clean);
  EXPECT_DOUBLE_EQ(m.routability,
                   100.0 * clean / static_cast<int>(r.geometry.size()));
  // WL mixes grid length for clean nets and HPWL for the rest: positive.
  EXPECT_GT(m.wirelength, 0);
}

}  // namespace
}  // namespace cpr::route
