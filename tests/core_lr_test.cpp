#include <gtest/gtest.h>

#include "core/lr_solver.h"
#include "obs/names.h"
#include "test_util.h"

namespace cpr::core {
namespace {

namespace tu = testutil;

/// Hand-built instance: `pinsOf[i]` lists the pins interval `i` covers and
/// `minimal[j]` names pin j's minimum interval. Every interval sits on its
/// own track, so there are no conflict sets; maxGains ignores them anyway.
PanelKernel handBuilt(std::size_t nPins,
                      const std::vector<std::vector<Index>>& pinsOf,
                      const std::vector<Index>& minimal) {
  PanelKernelBuilder b(ProfitModel::SqrtSpan);
  for (std::size_t j = 0; j < nPins; ++j) (void)b.addPin(static_cast<Index>(j));
  for (std::size_t i = 0; i < pinsOf.size(); ++i) {
    std::vector<PinIdx> pins;
    for (const Index q : pinsOf[i]) pins.push_back(PinIdx{q});
    (void)b.addInterval(static_cast<Coord>(i), geom::Interval{0, 3}, 0, pins,
                        false);
  }
  for (std::size_t j = 0; j < nPins; ++j)
    b.setMinimalInterval(PinIdx{j}, CandIdx{minimal[j]});
  return std::move(b).finish();
}

TEST(MaxGains, PicksHighestGainPerPin) {
  // Two pins of different nets; pin 0 has intervals {0 (gain 5), 1 (gain 2)},
  // pin 1 has {2 (gain 3)}.
  const PanelKernel k = handBuilt(2, {{0}, {0}, {1}}, {1, 2});
  const std::vector<Index> sel = maxGains(k, {5.0, 2.0, 3.0});
  ASSERT_EQ(sel.size(), 2u);
  EXPECT_NE(std::find(sel.begin(), sel.end(), 0), sel.end());
  EXPECT_NE(std::find(sel.begin(), sel.end(), 2), sel.end());
}

TEST(MaxGains, SharedIntervalAssignsAllItsPins) {
  // One shared interval (gain counts twice) beats two singles.
  const PanelKernel k = handBuilt(2, {{0}, {1}, {0, 1}}, {0, 1});
  // gains use weight = degree * profit → shared gain 3.0.
  const std::vector<Index> sel = maxGains(k, {1.0, 1.0, 3.0});
  ASSERT_EQ(sel.size(), 1u);
  EXPECT_EQ(sel[0], 2);
}

TEST(MaxGains, SkipsIntervalWhosePinIsTaken) {
  // Descending gains: 0 (pin A), 1 (pin A again, must skip), 2 (pin B).
  const PanelKernel k = handBuilt(2, {{0}, {0}, {1}}, {1, 2});
  const std::vector<Index> sel = maxGains(k, {9.0, 8.0, 1.0});
  ASSERT_EQ(sel.size(), 2u);
  EXPECT_EQ(sel[0], 0);
  EXPECT_EQ(sel[1], 2);
}

TEST(LrSolver, ConflictFreeOnGeneratedPanels) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const db::Design d = tu::tinyDesign(seed, 40, 0.4);
    const PanelKernel k = tu::panelKernel(d);
    const Assignment a = solveLr(k);
    EXPECT_EQ(a.violations, 0) << "seed " << seed;
    const AssignmentAudit audit_ = audit(k, a);
    EXPECT_EQ(audit_.overlapsBetweenNets, 0) << "seed " << seed;
    EXPECT_EQ(audit_.unassignedPins, 0) << "seed " << seed;
    EXPECT_TRUE(audit_.eachPinCovered) << "seed " << seed;
    EXPECT_NEAR(audit_.objective, a.objective, 1e-9);
    EXPECT_GE(a.objective, tu::minimalProfitBound(k) - 1e-9) << "seed " << seed;
  }
}

TEST(LrSolver, RespectsIterationBound) {
  const db::Design d = tu::tinyDesign(3, 40, 0.5);
  const PanelKernel k = tu::panelKernel(d);
  LrOptions opts;
  opts.maxIterations = 5;
  obs::Collector stats;
  const Assignment a = solveLr(k, opts, &stats);
  EXPECT_GT(stats.counter(obs::names::kLrIterations), 0);
  EXPECT_LE(stats.counter(obs::names::kLrIterations), 5);
  EXPECT_EQ(a.violations, 0);  // conflict removal still cleans up
}

TEST(LrSolver, SkipConflictRemovalMayLeaveViolations) {
  // With a single iteration and no cleanup, dense instances keep conflicts.
  const db::Design d = tu::tinyDesign(5, 40, 0.6);
  const PanelKernel k = tu::panelKernel(d);
  LrOptions opts;
  opts.maxIterations = 1;
  opts.skipConflictRemoval = true;
  const Assignment a = solveLr(k, opts);
  const AssignmentAudit audit_ = audit(k, a);
  EXPECT_EQ(audit_.unassignedPins, 0);  // every pin still assigned
  // violations is the count under the conflict-set definition; the direct
  // geometric audit must agree about whether any conflict exists.
  EXPECT_EQ(a.violations > 0, audit_.overlapsBetweenNets > 0);
}

TEST(LrSolver, BidirectionalMultipliersStayValid) {
  const db::Design d = tu::tinyDesign(7, 48, 0.5);
  const PanelKernel k = tu::panelKernel(d);
  LrOptions opts;
  opts.bidirectionalMultipliers = true;
  const Assignment a = solveLr(k, opts);
  EXPECT_EQ(a.violations, 0);
  EXPECT_EQ(audit(k, a).overlapsBetweenNets, 0);
}

TEST(LrSolver, ObjectiveImprovesOnAllMinimalBaseline) {
  // On a sparse panel LR should beat the trivial all-minimal solution.
  const db::Design d = tu::tinyDesign(11, 60, 0.15);
  const PanelKernel k = tu::panelKernel(d);
  const Assignment a = solveLr(k);
  EXPECT_GT(a.objective, tu::minimalProfitBound(k) + 1e-6);
}

/// Parameterized seed sweep at higher density: LR must always produce a
/// legal (conflict-free, fully assigned) solution.
class LrProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LrProperty, AlwaysLegal) {
  const db::Design d = tu::tinyDesign(GetParam(), 64, 0.55);
  const PanelKernel k = tu::panelKernel(d);
  const Assignment a = solveLr(k);
  EXPECT_EQ(a.violations, 0);
  const AssignmentAudit audit_ = audit(k, a);
  EXPECT_EQ(audit_.overlapsBetweenNets, 0);
  EXPECT_EQ(audit_.unassignedPins, 0);
  EXPECT_TRUE(audit_.eachPinCovered);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LrProperty,
                         ::testing::Range<std::uint64_t>(100, 120));

}  // namespace
}  // namespace cpr::core
