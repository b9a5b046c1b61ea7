/// \file core_reexpand_test.cpp
/// Unit tests for the LR solver's greedy re-expansion refinement: it must
/// only ever improve the objective, preserve the ILP's equality semantics
/// (no pin covered by two selected intervals), and respect conflict sets.
#include <gtest/gtest.h>

#include "core/lr_solver.h"
#include "test_util.h"

namespace cpr::core {
namespace {

namespace tu = testutil;

/// Hand-built problem where plain shrink-to-minimum demonstrably loses
/// length that re-expansion can win back: two diff-net pins on one track
/// whose long intervals conflict, but a second track offers pin 0 a long
/// conflict-free interval.
PanelKernel twoTrackEscape() {
  PanelKernelBuilder b(ProfitModel::SqrtSpan);
  const PinIdx p0 = b.addPin(0);  // net 0
  const PinIdx p1 = b.addPin(1);  // net 1
  // Pin 0: long on track 0 (id 0), minimal (id 1), long on track 1 (id 2).
  // Pin 1: long on track 0 (id 3), minimal (id 4).
  const std::vector<PinIdx> only0{p0};
  const std::vector<PinIdx> only1{p1};
  (void)b.addInterval(0, {0, 15}, 0, only0, false);
  const CandIdx min0 = b.addInterval(0, {4, 4}, 0, only0, true);
  (void)b.addInterval(1, {0, 15}, 0, only0, false);
  (void)b.addInterval(0, {6, 20}, 1, only1, false);
  const CandIdx min1 = b.addInterval(0, {12, 12}, 1, only1, true);
  b.setMinimalInterval(p0, min0);
  b.setMinimalInterval(p1, min1);
  return std::move(b).finish();
}

TEST(Reexpand, RecoversLengthOnAlternateTrack) {
  const PanelKernel k = twoTrackEscape();
  LrOptions with;
  with.reexpandRounds = 2;
  LrOptions without;
  without.reexpandRounds = 0;
  const Assignment base = solveLr(k, without);
  const Assignment refined = solveLr(k, with);
  EXPECT_GE(refined.objective, base.objective);
  // The refined solution must give both pins long intervals: pin 0 escapes
  // to track 1 (id 2), pin 1 keeps its long interval (id 3).
  EXPECT_EQ(refined.intervalOfPin[0], 2);
  EXPECT_EQ(refined.intervalOfPin[1], 3);
  EXPECT_EQ(refined.violations, 0);
}

TEST(Reexpand, NeverWorsensAndStaysLegal) {
  for (std::uint64_t seed = 300; seed < 312; ++seed) {
    const db::Design d = tu::tinyDesign(seed, 56, 0.5);
    const PanelKernel k = tu::panelKernel(d);
    LrOptions with;
    with.reexpandRounds = 3;
    LrOptions without;
    without.reexpandRounds = 0;
    const Assignment base = solveLr(k, without);
    const Assignment refined = solveLr(k, with);
    EXPECT_GE(refined.objective, base.objective - 1e-9) << "seed " << seed;
    EXPECT_EQ(refined.violations, 0) << "seed " << seed;
    const AssignmentAudit audit_ = audit(k, refined);
    EXPECT_EQ(audit_.overlapsBetweenNets, 0) << "seed " << seed;
    EXPECT_EQ(audit_.unassignedPins, 0) << "seed " << seed;
    EXPECT_TRUE(audit_.eachPinCovered) << "seed " << seed;
  }
}

TEST(Reexpand, PreservesIlpEqualitySemantics) {
  // After refinement, no pin may be covered by a *different* selected
  // interval than its own — the property whose violation once inflated the
  // objective beyond the true ILP optimum.
  for (std::uint64_t seed = 320; seed < 330; ++seed) {
    const db::Design d = tu::tinyDesign(seed, 48, 0.45);
    const PanelKernel k = tu::panelKernel(d);
    const Assignment a = solveLr(k);
    std::vector<char> selected(k.numIntervals(), 0);
    for (const Index i : a.intervalOfPin) {
      if (i != geom::kInvalidIndex) selected[CandIdx{i}.idx()] = 1;
    }
    for (std::size_t i = 0; i < k.numIntervals(); ++i) {
      if (!selected[i]) continue;
      for (const PinIdx q : k.pinsOf(CandIdx{i})) {
        EXPECT_EQ(a.intervalOfPin[q.idx()], static_cast<Index>(i))
            << "pin " << q.value() << " covered by selected interval " << i
            << " but assigned elsewhere (seed " << seed << ")";
      }
    }
  }
}

TEST(Reexpand, StaysAtOrBelowExactOptimum) {
  for (std::uint64_t seed = 340; seed < 348; ++seed) {
    const db::Design d = tu::tinyDesign(seed, 24, 0.3);
    GenOptions g;
    g.maxExtent = 4;
    const PanelKernel k = tu::panelKernel(d, g);
    const std::optional<double> ref = tu::bruteForceOptimum(k);
    if (!ref) continue;
    const Assignment lr = solveLr(k);
    EXPECT_LE(lr.objective, *ref + 1e-6) << "seed " << seed;
  }
}

}  // namespace
}  // namespace cpr::core
