/// Exactness checks for the ILP path (`IlpSolver`: Formula (1) through the
/// LP-based branch & bound) against a brute-force enumerator, the pairwise
/// conflict encoding, and the LR heuristic.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/ilp_builder.h"
#include "core/lr_solver.h"
#include "core/solver.h"
#include "ilp/branch_and_bound.h"
#include "test_util.h"

namespace cpr::core {
namespace {

namespace tu = testutil;

TEST(ExactIlp, MatchesBruteForceOnTinyInstances) {
  int checked = 0;
  for (std::uint64_t seed = 1; seed <= 40 && checked < 12; ++seed) {
    const db::Design d = tu::tinyDesign(seed, 20, 0.3);
    GenOptions g;
    g.maxExtent = 4;  // keep candidate counts enumerable
    const PanelKernel k = tu::panelKernel(d, g);
    const std::optional<double> ref = tu::bruteForceOptimum(k);
    if (!ref) continue;
    ++checked;
    const Assignment a = IlpSolver{}.solve(k);
    EXPECT_TRUE(a.provedOptimal) << "seed " << seed;
    EXPECT_NEAR(a.objective, *ref, 1e-6) << "seed " << seed;
    EXPECT_EQ(a.violations, 0) << "seed " << seed;
  }
  EXPECT_GE(checked, 5) << "too few enumerable instances — loosen the guard";
}

TEST(ExactIlp, MatchesDirectBranchAndBound) {
  // The solver interface adds only the Formula (1) translation and the
  // decode around ilp::solveBinaryIlp; both routes reach the same optimum.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const db::Design d = tu::tinyDesign(seed, 28, 0.35);
    GenOptions g;
    g.maxExtent = 6;
    const PanelKernel k = tu::panelKernel(d, g);
    const Assignment a = IlpSolver{}.solve(k);
    ASSERT_TRUE(a.provedOptimal);

    const IlpBuild build = buildIlpModel(k);
    const ilp::IlpResult r = ilp::solveBinaryIlp(build.model);
    ASSERT_EQ(r.status, ilp::IlpStatus::Optimal) << "seed " << seed;
    const Assignment viaIlp = decodeIlpSolution(k, build, r.x);
    EXPECT_NEAR(a.objective, viaIlp.objective, 1e-6) << "seed " << seed;
  }
}

TEST(ExactIlp, PairwiseEncodingGivesSameOptimum) {
  const db::Design d = tu::tinyDesign(3, 24, 0.35);
  GenOptions g;
  g.maxExtent = 5;
  const PanelKernel k = tu::panelKernel(d, g);
  const IlpBuild cliqueEnc = buildIlpModel(k, /*pairwiseConflicts=*/false);
  const IlpBuild pairEnc = buildIlpModel(k, /*pairwiseConflicts=*/true);
  const ilp::IlpResult a = ilp::solveBinaryIlp(cliqueEnc.model);
  const ilp::IlpResult b = ilp::solveBinaryIlp(pairEnc.model);
  ASSERT_EQ(a.status, ilp::IlpStatus::Optimal);
  ASSERT_EQ(b.status, ilp::IlpStatus::Optimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-6);
  // Clique encoding needs no more rows than the pairwise one.
  EXPECT_LE(cliqueEnc.model.numConstraints(), pairEnc.model.numConstraints());
}

TEST(ExactIlp, DominatesLr) {
  for (std::uint64_t seed = 50; seed < 60; ++seed) {
    const db::Design d = tu::tinyDesign(seed, 48, 0.45);
    const PanelKernel k = tu::panelKernel(d);
    const Assignment lr = solveLr(k);
    const Assignment exact = IlpSolver{}.solve(k);
    // Only a proved optimum bounds LR: the search does not start from an
    // LR solution, so an unproven incumbent may fall below it.
    ASSERT_TRUE(exact.provedOptimal) << "seed " << seed;
    EXPECT_LE(lr.objective, exact.objective + 1e-6) << "seed " << seed;
    EXPECT_EQ(audit(k, exact).overlapsBetweenNets, 0);
  }
}

TEST(ExactIlp, NodeLimitReturnsUnprovenLegalResult) {
  // A dense two-row instance whose root relaxation is fractional, so one
  // node cannot prove it.
  gen::GenOptions g;
  g.seed = 9;
  g.width = 64;
  g.numRows = 2;
  g.pinDensity = 0.3;
  g.maxNetSpan = 48;
  const db::Design d = gen::generate(g);
  const PanelKernel k = buildPanelKernel(d, db::extractPanels(d));
  ilp::IlpOptions opts;
  opts.maxNodes = 1;
  const Assignment a = IlpSolver{opts}.solve(k);
  EXPECT_FALSE(a.provedOptimal);
  // Without an LR seed the truncated search may hold no incumbent; the
  // result is then all-unassigned. Either way it violates no conflict row,
  // and an incumbent, when there is one, covers every pin.
  EXPECT_EQ(a.violations, 0);
  EXPECT_EQ(audit(k, a).overlapsBetweenNets, 0);
  const bool any = std::any_of(
      a.intervalOfPin.begin(), a.intervalOfPin.end(),
      [](Index i) { return i != geom::kInvalidIndex; });
  if (any) {
    EXPECT_EQ(audit(k, a).unassignedPins, 0);
  }
}

TEST(ExactIlp, AssignmentIsAlwaysLegal) {
  for (std::uint64_t seed = 70; seed < 80; ++seed) {
    const db::Design d = tu::tinyDesign(seed, 40, 0.5);
    const PanelKernel k = tu::panelKernel(d);
    const Assignment a = IlpSolver{}.solve(k);
    ASSERT_TRUE(a.provedOptimal) << "seed " << seed;
    const AssignmentAudit audit_ = audit(k, a);
    EXPECT_EQ(a.violations, 0);
    EXPECT_EQ(audit_.overlapsBetweenNets, 0);
    EXPECT_EQ(audit_.unassignedPins, 0);
    EXPECT_TRUE(audit_.eachPinCovered);
    EXPECT_GE(a.objective, tu::minimalProfitBound(k) - 1e-9);
  }
}

}  // namespace
}  // namespace cpr::core
