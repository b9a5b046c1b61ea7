#include <gtest/gtest.h>

#include "core/optimizer.h"
#include "gen/generator.h"

namespace cpr::core {
namespace {

db::Design makeDesign(std::uint64_t seed = 4) {
  gen::GenOptions o;
  o.seed = seed;
  o.width = 120;
  o.numRows = 4;
  o.pinDensity = 0.2;
  o.maxNetSpan = 40;
  return gen::generate(o);
}

/// Plan legality against the raw design: every assigned interval covers its
/// pin on one of the pin's tracks, and intervals of different nets never
/// overlap on a track.
void checkPlan(const db::Design& d, const PinAccessPlan& plan) {
  ASSERT_EQ(plan.routes.size(), d.pins().size());
  for (std::size_t p = 0; p < d.pins().size(); ++p) {
    const PinRoute& r = plan.routes[p];
    ASSERT_TRUE(r.valid()) << "pin " << d.pins()[p].name;
    const db::Pin& pin = d.pins()[p];
    EXPECT_TRUE(pin.shape.y.contains(r.track));
    EXPECT_TRUE(r.span.contains(pin.shape.x));
  }
  for (std::size_t a = 0; a < plan.routes.size(); ++a) {
    for (std::size_t b = a + 1; b < plan.routes.size(); ++b) {
      const PinRoute& ra = plan.routes[a];
      const PinRoute& rb = plan.routes[b];
      if (ra.track != rb.track) continue;
      if (d.pins()[a].net == d.pins()[b].net) continue;
      EXPECT_FALSE(ra.span.overlaps(rb.span))
          << d.pins()[a].name << " vs " << d.pins()[b].name;
    }
  }
}

TEST(Optimizer, LrPlanIsLegal) {
  const db::Design d = makeDesign();
  const PinAccessPlan plan = optimizePinAccess(d);
  EXPECT_EQ(plan.unassignedPins(), 0);
  checkPlan(d, plan);
  EXPECT_GT(plan.objective, 0.0);
  EXPECT_GT(plan.totalIntervals(), 0);
}

TEST(Optimizer, ExactPlanIsLegalAndDominatesLr) {
  const db::Design d = makeDesign(6);
  OptimizerOptions lrOpts;
  const PinAccessPlan lr = optimizePinAccess(d, lrOpts);
  OptimizerOptions exOpts;
  exOpts.solve.method = Method::Ilp;
  exOpts.solve.ilp.deadline = support::Deadline::after(5.0);
  const PinAccessPlan exact = optimizePinAccess(d, exOpts);
  checkPlan(d, exact);
  // A plan proved optimal on every panel can never lose to LR. (The ILP
  // search does not start from the LR solution, so an unproven plan could.)
  ASSERT_TRUE(exact.allProvedOptimal());
  EXPECT_GE(exact.objective, lr.objective - 1e-6);
}

TEST(Optimizer, ThreadCountDoesNotChangeResults) {
  const db::Design d = makeDesign(8);
  OptimizerOptions one;
  one.threads = 1;
  OptimizerOptions four;
  four.threads = 4;
  const PinAccessPlan a = optimizePinAccess(d, one);
  const PinAccessPlan b = optimizePinAccess(d, four);
  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (std::size_t p = 0; p < a.routes.size(); ++p) {
    EXPECT_EQ(a.routes[p].track, b.routes[p].track);
    EXPECT_EQ(a.routes[p].span, b.routes[p].span);
  }
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
}

TEST(Optimizer, MaxExtentCapShortensIntervals) {
  const db::Design d = makeDesign(10);
  OptimizerOptions capped;
  capped.gen.maxExtent = 6;
  const PinAccessPlan plan = optimizePinAccess(d, capped);
  for (std::size_t p = 0; p < plan.routes.size(); ++p) {
    ASSERT_TRUE(plan.routes[p].valid());
    EXPECT_LE(plan.routes[p].span.span(), 2 * 6 + d.pins()[p].shape.x.span());
  }
}

TEST(Optimizer, LinearProfitGrowsMeanSpan) {
  // Linear profit chases total length; sqrt keeps spans balanced. The mean
  // span under linear profit must be at least that of sqrt (it maximizes
  // exactly that quantity, modulo degree weighting).
  const db::Design d = makeDesign(12);
  OptimizerOptions sq;
  OptimizerOptions lin;
  lin.profitModel = ProfitModel::LinearSpan;
  auto meanSpan = [](const PinAccessPlan& plan) {
    double sum = 0.0;
    long count = 0;
    for (const PinRoute& r : plan.routes) {
      if (!r.valid()) continue;
      sum += r.span.span();
      ++count;
    }
    return sum / static_cast<double>(count);
  };
  const double msSqrt = meanSpan(optimizePinAccess(d, sq));
  const double msLin = meanSpan(optimizePinAccess(d, lin));
  EXPECT_GT(msLin, 0.0);
  EXPECT_GT(msSqrt, 0.0);
}

}  // namespace
}  // namespace cpr::core
