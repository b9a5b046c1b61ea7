/// \file core_chaos_test.cpp
/// Fault-injection ("chaos") tests for the optimizer's panel boundary.
///
/// A mock solver deterministically faults ~half of all panels — throwing on
/// some, returning no incumbent on others — keyed on the panel index and a
/// fixed seed, never on time or thread identity. The optimizer must never
/// crash, must walk the degradation ladder to a legal plan (zero diff-net
/// overlaps), must count exactly one of `pao.panel.failed` /
/// `pao.panel.degraded` per injected fault, and must produce bit-identical
/// plans and counters for any worker-thread count.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "core/interval_gen.h"
#include "core/optimizer.h"
#include "gen/generator.h"
#include "obs/names.h"
#include "support/status.h"

namespace cpr::core {
namespace {

constexpr std::uint64_t kFaultSeed = 0x9e3779b97f4a7c15ULL;

/// splitmix64-style finalizer: the fault pattern is a pure function of the
/// panel index, so it is identical for any thread count and schedule.
std::uint64_t mix(std::uint64_t x) {
  x += kFaultSeed;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// 0 = healthy, 1 = throw, 2 = no incumbent (simulated budget exhaustion).
int faultOf(int panel) {
  const std::uint64_t h = mix(static_cast<std::uint64_t>(panel));
  if ((h & 1) == 0) return 0;  // ~50% of panels stay healthy
  return ((h >> 1) & 1) ? 1 : 2;
}

/// Faults by panel index (read from the collector's src tag); healthy
/// panels delegate to the real LR solver.
class ChaosSolver : public Solver {
 public:
  [[nodiscard]] std::string_view name() const override { return "chaos"; }
  [[nodiscard]] Assignment solve(const PanelKernel& k, PanelScratch* scratch,
                                 obs::Collector* obs,
                                 support::Deadline deadline) const override {
    switch (faultOf(obs ? obs->src() : 0)) {
      case 1: throw std::runtime_error("injected panel fault");
      case 2: {
        Assignment empty;
        empty.intervalOfPin.assign(k.numPins(), geom::kInvalidIndex);
        return empty;
      }
      default: return inner_.solve(k, scratch, obs, deadline);
    }
  }

 private:
  LrSolver inner_;
};

/// Same fault pattern, but claims to BE the LR solver — the optimizer then
/// skips the LR rung and must recover through the terminal greedy rung.
class ChaosLrSolver final : public ChaosSolver {
 public:
  [[nodiscard]] std::string_view name() const override { return "lr"; }
};

db::Design chaosDesign() {
  gen::GenOptions o;
  o.seed = 21;
  o.width = 110;
  o.numRows = 12;  // enough panels for a meaningful fault mix
  o.pinDensity = 0.2;
  o.maxNetSpan = 30;
  return gen::generate(o);
}

/// Plan legality with unassigned pins allowed: assigned routes must cover
/// their pin, and no two routes of different nets may overlap on a track.
void expectLegal(const db::Design& d, const PinAccessPlan& plan) {
  ASSERT_EQ(plan.routes.size(), d.pins().size());
  for (std::size_t p = 0; p < plan.routes.size(); ++p) {
    const PinRoute& r = plan.routes[p];
    if (!r.valid()) continue;
    EXPECT_TRUE(d.pins()[p].shape.y.contains(r.track));
    EXPECT_TRUE(r.span.contains(d.pins()[p].shape.x));
  }
  for (std::size_t a = 0; a < plan.routes.size(); ++a) {
    for (std::size_t b = a + 1; b < plan.routes.size(); ++b) {
      const PinRoute& ra = plan.routes[a];
      const PinRoute& rb = plan.routes[b];
      if (!ra.valid() || !rb.valid() || ra.track != rb.track) continue;
      if (d.pins()[a].net == d.pins()[b].net) continue;
      EXPECT_FALSE(ra.span.overlaps(rb.span))
          << d.pins()[a].name << " vs " << d.pins()[b].name;
    }
  }
}

long expectedFaults(const PinAccessPlan& plan, int kind) {
  const long panels = plan.stats.counter(obs::names::kPaoPanels);
  long n = 0;
  for (long p = 0; p < panels; ++p) n += faultOf(static_cast<int>(p)) == kind;
  return n;
}

TEST(Chaos, FaultedPanelsDegradeToALegalPlan) {
  const db::Design d = chaosDesign();
  OptimizerOptions opts;
  opts.solver = std::make_shared<ChaosSolver>();
  const PinAccessPlan plan = optimizePinAccess(d, opts);
  expectLegal(d, plan);

  const long throws = expectedFaults(plan, 1);
  const long stalls = expectedFaults(plan, 2);
  ASSERT_GT(throws, 0);
  ASSERT_GT(stalls, 0);
  // Exactly one of failed/degraded per injected fault, nothing else.
  EXPECT_EQ(plan.stats.counter(obs::names::kPaoPanelFailed), throws);
  EXPECT_EQ(plan.stats.counter(obs::names::kPaoPanelDegraded), stalls);
  EXPECT_EQ(plan.panelsBelowPrimary(), throws + stalls);
  // Faulted panels recovered through the LR rung; healthy ones stayed on
  // the primary.
  EXPECT_EQ(plan.stats.counter(obs::names::kPaoRungLr), throws + stalls);
  EXPECT_EQ(plan.stats.counter(obs::names::kPaoRungPrimary),
            plan.stats.counter(obs::names::kPaoPanels) - throws - stalls);
  // All pins still served: the LR rung is a full solver.
  EXPECT_EQ(plan.unassignedPins(), 0);
}

TEST(Chaos, LadderReachesTheGreedyRung) {
  const db::Design d = chaosDesign();
  OptimizerOptions opts;
  opts.solver = std::make_shared<ChaosLrSolver>();  // LR rung unavailable
  const PinAccessPlan plan = optimizePinAccess(d, opts);
  expectLegal(d, plan);
  const long faults = expectedFaults(plan, 1) + expectedFaults(plan, 2);
  EXPECT_EQ(plan.panelsBelowPrimary(), faults);
  EXPECT_EQ(plan.stats.counter(obs::names::kPaoRungLr), 0);
  EXPECT_EQ(plan.stats.counter(obs::names::kPaoRungGreedy), faults);
}

TEST(Chaos, PanelWithNoAccessShipsEmptyAtTheGreedyRung) {
  // Every track of every pin is blocked: no pin has a candidate, so the
  // primary LR solve is empty (degraded), the LR rung is the primary, and
  // the terminal greedy rung ships the panel all-unassigned.
  db::Design d("buried", 30, 1, 10);
  const db::Index n = d.addNet("A");
  d.addPin("p", n, geom::Rect{geom::Interval::point(5), geom::Interval{2, 3}});
  d.addPin("q", n, geom::Rect{geom::Interval::point(12), geom::Interval{6, 7}});
  d.addBlockage(db::Layer::M2,
                geom::Rect{geom::Interval{4, 6}, geom::Interval{2, 3}});
  d.addBlockage(db::Layer::M2,
                geom::Rect{geom::Interval{11, 13}, geom::Interval{6, 7}});
  const PinAccessPlan plan = optimizePinAccess(d, OptimizerOptions{});
  EXPECT_EQ(plan.stats.counter(obs::names::kPaoPanels), 1);
  EXPECT_EQ(plan.stats.counter(obs::names::kPaoRungGreedy), 1);
  EXPECT_EQ(plan.stats.counter(obs::names::kPaoRungPrimary), 0);
  EXPECT_EQ(plan.stats.counter(obs::names::kPaoPanelDegraded), 1);
  EXPECT_EQ(plan.stats.counter(obs::names::kPaoPanelFailed), 0);
  EXPECT_EQ(plan.unassignedPins(), 2);
  for (const PinRoute& r : plan.routes) EXPECT_FALSE(r.valid());
}

TEST(Chaos, PlansAndCountersAreThreadCountInvariant) {
  const db::Design d = chaosDesign();
  std::vector<PinAccessPlan> plans;
  for (int threads : {1, 2, 8}) {
    OptimizerOptions opts;
    opts.solver = std::make_shared<ChaosSolver>();
    opts.threads = threads;
    plans.push_back(optimizePinAccess(d, opts));
  }
  const PinAccessPlan& ref = plans.front();
  for (std::size_t i = 1; i < plans.size(); ++i) {
    const PinAccessPlan& p = plans[i];
    EXPECT_EQ(p.objective, ref.objective);  // bit-identical, not just close
    ASSERT_EQ(p.routes.size(), ref.routes.size());
    for (std::size_t j = 0; j < ref.routes.size(); ++j) {
      EXPECT_EQ(p.routes[j].track, ref.routes[j].track) << "pin " << j;
      EXPECT_EQ(p.routes[j].span, ref.routes[j].span) << "pin " << j;
    }
    for (const std::string_view name :
         {obs::names::kPaoPanelFailed, obs::names::kPaoPanelDegraded,
          obs::names::kPaoRungPrimary, obs::names::kPaoRungLr,
          obs::names::kPaoRungGreedy, obs::names::kPaoFallbacks, obs::names::kPaoUnassigned,
          obs::names::kLrIterations}) {
      EXPECT_EQ(p.stats.counter(name), ref.stats.counter(name)) << name;
    }
  }
}

TEST(Chaos, ExpiredRunDeadlineDegradesEveryPanelButStaysLegal) {
  const db::Design d = chaosDesign();
  OptimizerOptions opts;
  opts.deadline = support::Deadline::after(0.0);  // already expired
  const PinAccessPlan plan = optimizePinAccess(d, opts);
  expectLegal(d, plan);
  const long panels = plan.stats.counter(obs::names::kPaoPanels);
  ASSERT_GT(panels, 0);
  // Every panel skipped its solver: degraded (not failed), fast rungs only.
  EXPECT_EQ(plan.stats.counter(obs::names::kPaoPanelDegraded), panels);
  EXPECT_EQ(plan.stats.counter(obs::names::kPaoPanelFailed), 0);
  EXPECT_EQ(plan.stats.counter(obs::names::kPaoRungPrimary), 0);
  EXPECT_EQ(plan.stats.counter(obs::names::kPaoRungLr), 0);
  EXPECT_EQ(plan.stats.counter(obs::names::kPaoRungGreedy), panels);
}

TEST(Chaos, TrySolveClassifiesFaults) {
  const db::Design d = chaosDesign();
  const std::vector<db::Panel> panels = db::extractPanels(d);
  ASSERT_FALSE(panels.empty());
  const PanelKernel k = buildPanelKernel(d, {&panels[0], 1});
  ASSERT_GT(k.numPins(), 0u);

  struct Throwing final : Solver {
    [[nodiscard]] std::string_view name() const override { return "boom"; }
    [[nodiscard]] Assignment solve(const PanelKernel&, PanelScratch*,
                                   obs::Collector*,
                                   support::Deadline) const override {
      throw std::runtime_error("kaboom");
    }
  };
  const auto failed = Throwing{}.trySolve(k);
  EXPECT_EQ(failed.code(), support::StatusCode::Failed);
  EXPECT_NE(failed.status().message().find("kaboom"), std::string::npos);
  EXPECT_TRUE(failed.status().isFailure());

  struct Empty final : Solver {
    [[nodiscard]] std::string_view name() const override { return "empty"; }
    [[nodiscard]] Assignment solve(const PanelKernel& kk, PanelScratch*,
                                   obs::Collector*,
                                   support::Deadline) const override {
      Assignment a;
      a.intervalOfPin.assign(kk.numPins(), geom::kInvalidIndex);
      return a;
    }
  };
  EXPECT_EQ(Empty{}.trySolve(k).code(), support::StatusCode::Infeasible);
  EXPECT_EQ(Empty{}.trySolve(k, nullptr, nullptr,
                             support::Deadline::after(0.0))
                .code(),
            support::StatusCode::TimedOut);

  const auto ok = LrSolver{}.trySolve(k);
  EXPECT_EQ(ok.code(), support::StatusCode::Ok);
  EXPECT_TRUE(ok.isOk());
  EXPECT_EQ(ok.value().violations, 0);
}

}  // namespace
}  // namespace cpr::core
