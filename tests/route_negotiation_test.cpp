/// Negotiation-router behaviour that PR-level refactors must not drift:
/// thread-count invariance of the wave-parallel search/commit split, the
/// RRR stall detector's material-progress semantics, deadline handling, and
/// the batch counters.
#include <gtest/gtest.h>

#include <cstdint>

#include "gen/generator.h"
#include "obs/names.h"
#include "route/cpr.h"
#include "route/negotiation_router.h"
#include "support/contracts.h"
#include "support/deadline.h"

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

/// FNV-1a over every net's full committed geometry and signoff dirty flag.
/// Any divergence in what was routed or where it landed moves this digest.
std::uint64_t routeDigest(const RoutingResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xFFU;
      h *= 1099511628211ULL;
    }
  };
  for (const char dirty : r.dirty) mix(static_cast<std::uint64_t>(dirty));
  for (const NetGeometry& g : r.geometry) {
    for (const RouteSegment& s : g.segments) {
      mix(static_cast<std::uint64_t>(s.m3));
      mix(static_cast<std::uint64_t>(s.lane));
      mix(static_cast<std::uint64_t>(s.span.lo));
      mix(static_cast<std::uint64_t>(s.span.hi));
    }
    for (const ViaSite& v : g.vias) {
      mix(static_cast<std::uint64_t>(v.x));
      mix(static_cast<std::uint64_t>(v.y));
      mix(v.level);
    }
  }
  return h;
}

std::uint64_t digestAt(const db::Design& d, const core::PinAccessPlan* plan,
                       int threads) {
  NegotiationOptions opts;
  opts.threads = threads;
  return routeDigest(routeNegotiated(d, plan, opts));
}

TEST(Negotiation, RouteDigestIsThreadCountInvariantWithoutPlan) {
  const db::Design d = mediumDesign();
  const std::uint64_t d1 = digestAt(d, nullptr, 1);
  EXPECT_EQ(d1, digestAt(d, nullptr, 2));
  EXPECT_EQ(d1, digestAt(d, nullptr, 8));
}

TEST(Negotiation, RouteDigestIsThreadCountInvariantWithPlan) {
  const db::Design d = mediumDesign(5);
  CprOptions copts;
  const core::PinAccessPlan plan = core::optimizePinAccess(d, copts.pinAccess);
  const std::uint64_t d1 = digestAt(d, &plan, 1);
  EXPECT_EQ(d1, digestAt(d, &plan, 2));
  EXPECT_EQ(d1, digestAt(d, &plan, 8));
}

TEST(Negotiation, BatchCountersAreEmitted) {
  const db::Design d = mediumDesign();
  NegotiationOptions opts;
  opts.threads = 2;
  const RoutingResult r = routeNegotiated(d, nullptr, opts);
  // The independent stage alone launches at least one wave, and on a
  // multi-row design some nets are box-disjoint and ride the same wave.
  EXPECT_GE(r.stats.counter(obs::names::kRouteBatches), 1);
  EXPECT_GE(r.stats.counter(obs::names::kRouteParallelNets), 2);
  EXPECT_EQ(r.stats.counter(obs::names::kRouteTimeout), 0);
}

TEST(Negotiation, ExpiredDeadlineCutsStagesButNeverHalfRoutesNets) {
  const db::Design d = mediumDesign();
  NegotiationOptions opts;
  opts.deadline = support::Deadline::after(0.0);
  const RoutingResult r = routeNegotiated(d, nullptr, opts);
  // Both stages (independent waves, RRR) were cut short.
  EXPECT_EQ(r.stats.counter(obs::names::kRouteTimeout), 2);
  ASSERT_EQ(r.geometry.size(), d.nets().size());
  for (const NetGeometry& g : r.geometry) {
    if (g.routed()) {
      EXPECT_GE(g.vias.size(), 2U);  // fully hooked up, never half-routed
    }
  }
}

TEST(Negotiation, GridBytesGaugeIsThreadCountInvariant) {
  const db::Design d = mediumDesign(5);
  CprOptions copts;
  const core::PinAccessPlan plan = core::optimizePinAccess(d, copts.pinAccess);
  NegotiationOptions opts;
  opts.threads = 1;
  const RoutingResult r1 = routeNegotiated(d, &plan, opts);
  opts.threads = 4;
  const RoutingResult r4 = routeNegotiated(d, &plan, opts);
  const double bytes = r1.stats.gaugeOr(obs::names::kRouteGridBytes, 0.0);
  EXPECT_EQ(bytes, r4.stats.gaugeOr(obs::names::kRouteGridBytes, 0.0));
  // 8 bytes per node over both layers.
  EXPECT_EQ(bytes, 8.0 * 2.0 * d.width() * d.gridHeight());
}

TEST(NegotiationDeathTest, HistoryCountCapsIterationsAt255) {
  const db::Design d = mediumDesign();
  NegotiationOptions opts;
  opts.maxRrrIterations = 256;
#if defined(NDEBUG)
  EXPECT_THROW(static_cast<void>(routeNegotiated(d, nullptr, opts)),
               support::ContractViolation);
#else
  EXPECT_DEATH(static_cast<void>(routeNegotiated(d, nullptr, opts)),
               "maxRrrIterations <= 255");
#endif
}

// ---- RrrStallDetector (the PR-7 stall-measurement fix) ----

TEST(RrrStallDetector, SlowDripStillTriggersStallExit) {
  // Sub-0.5%-per-iteration decline from 1000: each step is far below the
  // 2% material threshold, so the default budget of 4 exhausts.
  RrrStallDetector det(1000, 4);
  EXPECT_FALSE(det.shouldStop(999));
  EXPECT_FALSE(det.shouldStop(998));
  EXPECT_FALSE(det.shouldStop(997));
  EXPECT_TRUE(det.shouldStop(996));
  EXPECT_EQ(det.baseline(), 1000);  // never tightened by sub-material steps
}

TEST(RrrStallDetector, SteadyMaterialRateProgressIsNotCutOff) {
  // 1% per iteration: no single step is material, but against a baseline
  // that only moves on material improvement the steps accumulate and re-arm
  // the detector. The pre-fix behaviour (baseline = min so far) measured
  // each step against the previous value and cut this run off mid-progress.
  RrrStallDetector det(1000, 4);
  long congestion = 1000;
  for (int iter = 0; iter < 30; ++iter) {
    congestion -= 10;
    EXPECT_FALSE(det.shouldStop(congestion)) << "iteration " << iter;
  }
  EXPECT_LT(det.baseline(), 1000);  // material progress was registered
}

TEST(RrrStallDetector, MaterialImprovementResetsTheBudget) {
  RrrStallDetector det(1000, 2);
  EXPECT_FALSE(det.shouldStop(995));  // stall 1 of 2
  EXPECT_FALSE(det.shouldStop(950));  // 5%: material, budget re-armed
  EXPECT_EQ(det.baseline(), 950);
  EXPECT_FALSE(det.shouldStop(949));  // stall 1 of 2
  EXPECT_TRUE(det.shouldStop(948));   // stall 2 of 2
}

TEST(RrrStallDetector, ZeroBudgetDisablesTheDetector) {
  RrrStallDetector det(100, 0);
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(det.shouldStop(100));
}

}  // namespace
}  // namespace cpr::route
