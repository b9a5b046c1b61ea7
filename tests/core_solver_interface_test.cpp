#include <gtest/gtest.h>

#include <memory>

#include "core/conflict.h"
#include "core/ilp_builder.h"
#include "core/interval_gen.h"
#include "core/lr_solver.h"
#include "core/optimizer.h"
#include "db/panel.h"
#include "gen/generator.h"
#include "obs/names.h"

namespace cpr::core {
namespace {

Problem makeProblem(std::uint64_t seed = 17) {
  gen::GenOptions o;
  o.seed = seed;
  o.width = 100;
  o.numRows = 2;
  o.pinDensity = 0.2;
  o.maxNetSpan = 30;
  const db::Design d = gen::generate(o);
  Problem p =
      buildProblem(d, std::vector<db::Panel>(db::extractPanels(d)), {});
  detectConflicts(p);
  return p;
}

void expectSameAssignment(const Assignment& a, const Assignment& b) {
  ASSERT_EQ(a.intervalOfPin.size(), b.intervalOfPin.size());
  for (std::size_t j = 0; j < a.intervalOfPin.size(); ++j)
    EXPECT_EQ(a.intervalOfPin[j], b.intervalOfPin[j]) << "pin " << j;
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
  EXPECT_EQ(a.violations, b.violations);
}

TEST(SolverInterface, LrMatchesFreeFunction) {
  const Problem p = makeProblem();
  const Assignment direct = solveLr(p);
  const Assignment viaIface = LrSolver{{}}.solve(p);
  expectSameAssignment(direct, viaIface);
}

TEST(SolverInterface, IlpMatchesFreeFunction) {
  const Problem p = makeProblem(19);
  ilp::IlpOptions io;
  io.deadline = support::Deadline::after(10.0);
  const IlpBuild build = buildIlpModel(p);
  const ilp::IlpResult res = ilp::solveBinaryIlp(build.model, io);
  ASSERT_EQ(res.status, ilp::IlpStatus::Optimal);
  Assignment direct = decodeIlpSolution(p, build, res.x);
  direct.provedOptimal = true;
  const Assignment viaIface = IlpSolver{io}.solve(p);
  expectSameAssignment(direct, viaIface);
  EXPECT_TRUE(viaIface.provedOptimal);
}

TEST(SolverInterface, NamesAndFactory) {
  EXPECT_EQ(LrSolver{}.name(), "lr");
  EXPECT_EQ(IlpSolver{}.name(), "ilp");
  EXPECT_EQ(makeSolver({.method = Method::Lr})->name(), "lr");
  EXPECT_EQ(makeSolver({.method = Method::Ilp})->name(), "ilp");
}

TEST(SolverInterface, MethodNameTable) {
  EXPECT_EQ(methodFromName("lr"), Method::Lr);
  EXPECT_EQ(methodFromName("ilp"), Method::Ilp);
  // The retired LP-path alias and anything else are rejected.
  EXPECT_EQ(methodFromName("generic"), std::nullopt);
  EXPECT_EQ(methodFromName("exact"), std::nullopt);
  EXPECT_EQ(methodFromName(""), std::nullopt);
  EXPECT_EQ(methodFromName("ILP"), std::nullopt);
}

TEST(SolverInterface, BothSolversAgreeOnObjective) {
  // Small instance so the ILP path stays fast: it proves optimality, and LR
  // is a lower bound on the proved optimum.
  gen::GenOptions o;
  o.seed = 23;
  o.width = 48;
  o.numRows = 1;
  o.pinDensity = 0.15;
  o.maxNetSpan = 20;
  o.maxNetRowSpread = 0;
  const db::Design d = gen::generate(o);
  Problem p = buildProblem(d, db::extractPanel(d, 0), {});
  detectConflicts(p);

  const Assignment lr = LrSolver{{}}.solve(p);
  const Assignment ilp = IlpSolver{{}}.solve(p);
  ASSERT_TRUE(ilp.provedOptimal);
  EXPECT_EQ(ilp.violations, 0);
  EXPECT_LE(lr.objective, ilp.objective + 1e-6);
}

TEST(SolverInterface, SolversEmitCanonicalCounters) {
  const Problem p = makeProblem(29);
  obs::Collector lrObs;
  (void)LrSolver{{}}.solve(p, &lrObs);
  EXPECT_GT(lrObs.counter(obs::names::kLrIterations), 0);
  EXPECT_FALSE(lrObs.series().empty());

  obs::Collector ilpObs;
  gen::GenOptions small;
  small.seed = 23;
  small.width = 48;
  small.numRows = 1;
  small.pinDensity = 0.15;
  small.maxNetSpan = 20;
  small.maxNetRowSpread = 0;
  const db::Design d = gen::generate(small);
  Problem tiny = buildProblem(d, db::extractPanel(d, 0), {});
  detectConflicts(tiny);
  (void)IlpSolver{{}}.solve(tiny, &ilpObs);
  EXPECT_GT(ilpObs.counter(obs::names::kIlpNodes), 0);
  EXPECT_GT(ilpObs.counter(obs::names::kIlpPivots), 0);
}

TEST(SolverInterface, OptimizerHonorsCustomSolverOverride) {
  gen::GenOptions o;
  o.seed = 31;
  o.width = 120;
  o.numRows = 3;
  o.pinDensity = 0.2;
  const db::Design d = gen::generate(o);

  OptimizerOptions viaEnum;
  viaEnum.solve.method = Method::Ilp;
  viaEnum.solve.ilp.deadline = support::Deadline::after(5.0);
  const PinAccessPlan a = optimizePinAccess(d, viaEnum);
  ASSERT_TRUE(a.allProvedOptimal());

  OptimizerOptions viaOverride;  // method left at Lr: override must win
  viaOverride.solver = std::make_shared<IlpSolver>(viaEnum.solve.ilp);
  const PinAccessPlan b = optimizePinAccess(d, viaOverride);

  ASSERT_EQ(a.routes.size(), b.routes.size());
  for (std::size_t j = 0; j < a.routes.size(); ++j) {
    EXPECT_EQ(a.routes[j].track, b.routes[j].track);
    EXPECT_EQ(a.routes[j].span, b.routes[j].span);
  }
  EXPECT_DOUBLE_EQ(a.objective, b.objective);
  EXPECT_EQ(a.stats.notes().at(std::string(cpr::obs::names::kPaoSolverNote)),
            "ilp");
  EXPECT_EQ(b.stats.notes().at(std::string(cpr::obs::names::kPaoSolverNote)),
            "ilp");
}

TEST(SolverInterface, KernelOverloadMatchesProblemOverload) {
  // The kernel-first entry point and the Problem convenience overload must
  // produce identical assignments for every solver behind the interface.
  gen::GenOptions o;
  o.seed = 23;
  o.width = 48;
  o.numRows = 1;
  o.pinDensity = 0.15;
  o.maxNetSpan = 20;
  o.maxNetRowSpread = 0;
  const db::Design d = gen::generate(o);
  Problem p = buildProblem(d, db::extractPanel(d, 0), {});
  detectConflicts(p);
  const PanelKernel k = PanelKernel::compile(Problem(p));

  const std::unique_ptr<Solver> solvers[] = {
      makeSolver({.method = Method::Lr}), makeSolver({.method = Method::Ilp})};
  for (const auto& s : solvers) {
    const Assignment viaProblem = s->solve(p);
    const Assignment viaKernel = s->solve(k);
    expectSameAssignment(viaProblem, viaKernel);
  }
}

// Golden objectives captured from the nested (pre-CSR) solver paths at
// %.17g precision. The CSR kernel preserves iteration and floating-point
// order exactly, so these must keep matching to the last bit.
TEST(SolverInterface, GoldenObjectivesPinned) {
  struct Golden {
    std::uint64_t seed;
    double objective;
  };
  const Golden goldens[] = {{17, 176.42178129662054},
                            {19, 172.90642536321195},
                            {29, 207.59023232254097}};
  ilp::IlpOptions io;
  io.deadline = support::Deadline::after(10.0);
  for (const Golden& g : goldens) {
    const Problem p = makeProblem(g.seed);
    const Assignment lr = solveLr(p);
    EXPECT_DOUBLE_EQ(lr.objective, g.objective) << "lr seed " << g.seed;
    EXPECT_EQ(lr.violations, 0);
    const Assignment exact = IlpSolver{io}.solve(p);
    EXPECT_DOUBLE_EQ(exact.objective, g.objective) << "ilp seed " << g.seed;
    EXPECT_TRUE(exact.provedOptimal);
  }
  // Tiny single-panel fixture where both solvers agree exactly.
  gen::GenOptions o;
  o.seed = 23;
  o.width = 48;
  o.numRows = 1;
  o.pinDensity = 0.15;
  o.maxNetSpan = 20;
  o.maxNetRowSpread = 0;
  const db::Design d = gen::generate(o);
  Problem tiny = buildProblem(d, db::extractPanel(d, 0), {});
  detectConflicts(tiny);
  constexpr double kTinyGolden = 18.481436464210109;
  EXPECT_DOUBLE_EQ(LrSolver{{}}.solve(tiny).objective, kTinyGolden);
  EXPECT_DOUBLE_EQ(IlpSolver{io}.solve(tiny).objective, kTinyGolden);
}

// Design-level plan goldens (LR method, pinned objective + FNV-1a route
// digest): the full optimizer pipeline — generation, conflict detection,
// kernel compile, solve, merge — must reproduce the pre-CSR plans bit for
// bit, for every thread count.
TEST(SolverInterface, GoldenPlansPinnedAcrossThreadCounts) {
  struct Golden {
    std::uint64_t seed;
    double objective;
    std::size_t digest;
  };
  const Golden goldens[] = {{4, 488.34571741026241, 0xa8b2e703118bdeb6ULL},
                            {6, 486.15179977988981, 0x13af5ee8fbb07215ULL},
                            {8, 502.71800242058799, 0xb67a13059d15da59ULL}};
  for (const Golden& g : goldens) {
    gen::GenOptions o;
    o.seed = g.seed;
    o.width = 120;
    o.numRows = 4;
    o.pinDensity = 0.2;
    o.maxNetSpan = 40;
    const db::Design d = gen::generate(o);
    for (const int threads : {1, 4, 8}) {
      OptimizerOptions opts;
      opts.solve.method = Method::Lr;
      opts.threads = threads;
      const PinAccessPlan plan = optimizePinAccess(d, opts);
      EXPECT_DOUBLE_EQ(plan.objective, g.objective)
          << "seed " << g.seed << " threads " << threads;
      std::size_t h = 1469598103934665603ULL;
      auto mix = [&](long v) {
        h ^= static_cast<std::size_t>(v);
        h *= 1099511628211ULL;
      };
      for (const PinRoute& r : plan.routes) {
        mix(r.track);
        mix(r.span.lo);
        mix(r.span.hi);
      }
      EXPECT_EQ(h, g.digest) << "seed " << g.seed << " threads " << threads;
      EXPECT_EQ(plan.unassignedPins(), 0);
      EXPECT_GT(plan.stats.counter(obs::names::kPaoKernelBytes), 0);
    }
  }
}

TEST(SolverInterface, PlanCountersDeterministicAcrossThreadCounts) {
  gen::GenOptions o;
  o.seed = 37;
  o.width = 160;
  o.numRows = 6;
  o.pinDensity = 0.2;
  const db::Design d = gen::generate(o);

  OptimizerOptions one;
  one.threads = 1;
  OptimizerOptions many;
  many.threads = 4;
  const PinAccessPlan a = optimizePinAccess(d, one);
  const PinAccessPlan b = optimizePinAccess(d, many);
  EXPECT_EQ(a.stats.counters(), b.stats.counters());
  // Series (per-iteration LR traces tagged by panel src) also match exactly.
  ASSERT_EQ(a.stats.series().size(), b.stats.series().size());
  for (const auto& [name, s] : a.stats.series()) {
    const auto it = b.stats.series().find(name);
    ASSERT_NE(it, b.stats.series().end()) << name;
    EXPECT_EQ(s.columns, it->second.columns) << name;
    EXPECT_EQ(s.rows, it->second.rows) << name;
  }
}

}  // namespace
}  // namespace cpr::core
