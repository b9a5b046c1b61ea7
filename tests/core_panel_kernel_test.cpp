/// \file core_panel_kernel_test.cpp
/// Property tests for the compiled CSR `PanelKernel`: for randomly generated
/// panels the flat view must round-trip every adjacency of the nested
/// `Problem` in the exact same order, the flat `audit` must agree with the
/// nested ground truth, and scratch-arena reuse must not change any solver
/// result. Boundary tests pin down `rowSpan` behavior at the edges of the
/// offset arrays (last row, empty panel, single-candidate panel).
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "core/conflict.h"
#include "core/interval_gen.h"
#include "core/panel_kernel.h"
#include "core/solver.h"
#include "db/panel.h"
#include "gen/generator.h"

namespace cpr::core {
namespace {

db::Design randomDesign(std::uint64_t seed) {
  gen::GenOptions o;
  o.seed = seed;
  o.width = 90;
  o.numRows = 2;
  o.pinDensity = 0.22;
  o.minPinTracks = 2;
  o.maxPinTracks = 4;
  o.maxNetSpan = 30;
  o.blockagesPerRow = 2;
  return gen::generate(o);
}

Problem panelProblem(const db::Design& d, int panelIdx) {
  Problem p = buildProblem(d, db::extractPanel(d, panelIdx));
  detectConflicts(p);
  return p;
}

/// Unwraps a strong-id span back to the raw ids of the nested `Problem`.
template <typename T>
std::vector<Index> toRaw(std::span<const T> s) {
  std::vector<Index> out;
  out.reserve(s.size());
  for (const T v : s) out.push_back(v.value());
  return out;
}

class PanelKernelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PanelKernelProperty, CompileRoundTripsEveryAdjacency) {
  const db::Design d = randomDesign(GetParam());
  for (int panel = 0; panel < 2; ++panel) {
    const Problem p = panelProblem(d, panel);
    const PanelKernel k = PanelKernel::compile(Problem(p));

    ASSERT_EQ(k.numPins(), p.pins.size());
    ASSERT_EQ(k.numIntervals(), p.intervals.size());
    ASSERT_EQ(k.numConflicts(), p.conflicts.size());

    for (std::size_t j = 0; j < p.pins.size(); ++j) {
      const PinIdx jj{j};
      EXPECT_EQ(toRaw(k.candidatesOf(jj)), p.pins[j].intervals);
      EXPECT_EQ(k.minimalIntervalOf(jj).value(), p.pins[j].minimalInterval);
      EXPECT_EQ(k.designPinOf(jj), p.pins[j].designPin);
      // The profit-sorted view is a permutation of the candidate set in
      // non-increasing profit order.
      const std::vector<Index> sorted = toRaw(k.sortedCandidatesOf(jj));
      ASSERT_EQ(sorted.size(), p.pins[j].intervals.size());
      for (std::size_t u = 1; u < sorted.size(); ++u) {
        EXPECT_GE(k.profitOf(CandIdx{sorted[u - 1]}),
                  k.profitOf(CandIdx{sorted[u]}));
      }
      std::vector<Index> a = sorted;
      std::vector<Index> b = p.pins[j].intervals;
      std::sort(a.begin(), a.end());
      std::sort(b.begin(), b.end());
      EXPECT_EQ(a, b);
    }

    for (std::size_t i = 0; i < p.intervals.size(); ++i) {
      const CandIdx ii{i};
      const AccessInterval& iv = p.intervals[i];
      EXPECT_EQ(toRaw(k.pinsOf(ii)), iv.pins);
      EXPECT_EQ(k.trackOf(ii), iv.track);
      EXPECT_EQ(k.spanOf(ii).lo, iv.span.lo);
      EXPECT_EQ(k.spanOf(ii).hi, iv.span.hi);
      EXPECT_EQ(k.netOf(ii), iv.net);
      EXPECT_EQ(k.isMinimal(ii), iv.minimal);
      EXPECT_EQ(k.profitOf(ii), p.profit[i]);
      EXPECT_EQ(k.weightOf(ii), p.weight(ii.value()));
      EXPECT_EQ(k.degreeOf(ii), static_cast<Index>(iv.pins.size()));
    }

    // Conflict membership and the interval->conflicts cross-index, which
    // must list each interval's sets in ascending id order (the order the
    // nested csOf construction produced).
    std::vector<std::vector<Index>> csOf(p.intervals.size());
    for (std::size_t m = 0; m < p.conflicts.size(); ++m) {
      const ConflictIdx mm{m};
      EXPECT_EQ(toRaw(k.membersOf(mm)), p.conflicts[m].intervals);
      EXPECT_EQ(k.conflictTrackOf(mm), p.conflicts[m].track);
      EXPECT_EQ(k.conflictSpanOf(mm), p.conflicts[m].common.span());
      for (const Index i : p.conflicts[m].intervals)
        csOf[CandIdx{i}.idx()].push_back(mm.value());
    }
    for (std::size_t i = 0; i < p.intervals.size(); ++i)
      EXPECT_EQ(toRaw(k.conflictsOf(CandIdx{i})), csOf[i]);

    EXPECT_GT(k.footprintBytes(), 0u);
  }
}

TEST_P(PanelKernelProperty, FlatAuditMatchesNestedAudit) {
  const db::Design d = randomDesign(GetParam());
  const Problem p = panelProblem(d, 0);
  const PanelKernel k = PanelKernel::compile(Problem(p));

  // Audit both a legal assignment and randomly perturbed (possibly illegal,
  // possibly partial) ones: the flat audit must agree on all of them.
  std::mt19937_64 rng(GetParam() * 7919 + 1);
  Assignment a = solveLr(k);
  for (int round = 0; round < 6; ++round) {
    const AssignmentAudit nested = audit(p, a);
    const AssignmentAudit flat = audit(k, a);
    EXPECT_EQ(flat.objective, nested.objective);
    EXPECT_EQ(flat.unassignedPins, nested.unassignedPins);
    EXPECT_EQ(flat.overlapsBetweenNets, nested.overlapsBetweenNets);
    EXPECT_EQ(flat.eachPinCovered, nested.eachPinCovered);

    if (a.intervalOfPin.empty()) break;
    const std::size_t j = rng() % a.intervalOfPin.size();
    const PinIdx jj{j};
    if (rng() % 3 == 0) {
      a.intervalOfPin[j] = geom::kInvalidIndex;
    } else if (!k.candidatesOf(jj).empty()) {
      const std::span<const CandIdx> cand = k.candidatesOf(jj);
      a.intervalOfPin[j] = cand[rng() % cand.size()].value();
    }
  }
}

TEST_P(PanelKernelProperty, ScratchReuseDoesNotChangeResults) {
  const db::Design d = randomDesign(GetParam());
  // One arena reused across panels of different sizes must reproduce the
  // scratch-free results bit for bit, for both solvers behind the interface.
  PanelScratch arena;
  for (int panel = 0; panel < 2; ++panel) {
    const Problem p = panelProblem(d, panel);
    const PanelKernel k = PanelKernel::compile(Problem(p));
    for (const auto& solver :
         {std::unique_ptr<Solver>(std::make_unique<LrSolver>()),
          std::unique_ptr<Solver>(std::make_unique<IlpSolver>())}) {
      // Each solve gets its own relative budget: a shared absolute deadline
      // could fire between the two calls and break bit-identity.
      const Assignment fresh = solver->solve(k, nullptr, nullptr,
                                             support::Deadline::after(10.0));
      const Assignment reused = solver->solve(k, &arena, nullptr,
                                              support::Deadline::after(10.0));
      EXPECT_EQ(fresh.intervalOfPin, reused.intervalOfPin) << solver->name();
      EXPECT_EQ(fresh.objective, reused.objective) << solver->name();
      EXPECT_EQ(fresh.violations, reused.violations) << solver->name();
      EXPECT_EQ(fresh.provedOptimal, reused.provedOptimal) << solver->name();
    }
    EXPECT_GT(arena.footprintBytes(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PanelKernelProperty,
                         ::testing::Range<std::uint64_t>(300, 310));

// ---- rowSpan boundary behavior -------------------------------------------

TEST(PanelKernelBoundary, EmptyPanelCompilesToEmptyKernel) {
  const PanelKernel k = PanelKernel::compile(Problem{});
  EXPECT_EQ(k.numPins(), 0u);
  EXPECT_EQ(k.numIntervals(), 0u);
  EXPECT_EQ(k.numConflicts(), 0u);
  // The offset arrays still exist (one sentinel row), so the footprint is
  // small but non-zero and no accessor can be legally called.
  EXPECT_GT(k.footprintBytes(), 0u);
}

TEST(PanelKernelBoundary, SingleCandidatePanelRoundTrips) {
  // Smallest non-trivial instance: one pin, one candidate interval that is
  // also the pin's minimum interval, no conflicts.
  Problem p;
  AccessInterval iv;
  iv.track = 3;
  iv.span = geom::Interval{5, 7};
  iv.conflictSpan = iv.span;
  iv.net = 0;
  iv.minimal = true;
  iv.pins = {0};
  p.intervals.push_back(iv);
  ProblemPin pin;
  pin.designPin = 42;
  pin.net = 0;
  pin.intervals = {0};
  pin.minimalInterval = 0;
  p.pins.push_back(pin);
  p.profit = {1.5};

  const PanelKernel k = PanelKernel::compile(std::move(p));
  ASSERT_EQ(k.numPins(), 1u);
  ASSERT_EQ(k.numIntervals(), 1u);
  const PinIdx j{std::size_t{0}};
  ASSERT_EQ(k.candidatesOf(j).size(), 1u);
  EXPECT_EQ(k.candidatesOf(j).front(), CandIdx{0});
  ASSERT_EQ(k.sortedCandidatesOf(j).size(), 1u);
  EXPECT_EQ(k.minimalIntervalOf(j), CandIdx{0});
  const CandIdx i{0};
  ASSERT_EQ(k.pinsOf(i).size(), 1u);
  EXPECT_EQ(k.pinsOf(i).front(), j);
  EXPECT_TRUE(k.conflictsOf(i).empty());
  EXPECT_EQ(k.degreeOf(i), 1);
  EXPECT_TRUE(k.isMinimal(i));
  EXPECT_EQ(k.designPinOf(j), 42);
}

TEST(PanelKernelBoundary, LastRowSpanEndsExactlyAtDataEnd) {
  // `rowSpan` at k == numPins()-1 reads off[n-1]..off[n], the final offset
  // pair; its end iterator must land exactly on the end of the flat data.
  const db::Design d = randomDesign(1234);
  const Problem p = panelProblem(d, 0);
  const PanelKernel k = PanelKernel::compile(Problem(p));
  ASSERT_GT(k.numPins(), 0u);
  ASSERT_GT(k.numIntervals(), 0u);
  ASSERT_GT(k.numConflicts(), 0u);

  std::size_t totalCands = 0;
  for (std::size_t j = 0; j < k.numPins(); ++j)
    totalCands += k.candidatesOf(PinIdx{j}).size();
  std::size_t nestedCands = 0;
  for (const ProblemPin& pin : p.pins) nestedCands += pin.intervals.size();
  EXPECT_EQ(totalCands, nestedCands);

  // The last row of each CSR adjacency matches its nested counterpart.
  const std::size_t lastPin = k.numPins() - 1;
  EXPECT_EQ(toRaw(k.candidatesOf(PinIdx{lastPin})),
            p.pins[lastPin].intervals);
  const std::size_t lastIv = k.numIntervals() - 1;
  EXPECT_EQ(toRaw(k.pinsOf(CandIdx{lastIv})), p.intervals[lastIv].pins);
  const std::size_t lastCs = k.numConflicts() - 1;
  EXPECT_EQ(toRaw(k.membersOf(ConflictIdx{lastCs})),
            p.conflicts[lastCs].intervals);

  // A span ending at the data end stays valid after copying the kernel's
  // spans around (spans are views into the kernel's own storage).
  const std::span<const CandIdx> tail = k.candidatesOf(PinIdx{lastPin});
  if (!tail.empty()) {
    EXPECT_LT(tail.back().idx(), k.numIntervals());
  }
}

TEST(PanelKernelBoundary, StrongIdSentinelRoundTrips) {
  // Default-constructed ids are the sentinel and never index anything.
  EXPECT_FALSE(CandIdx{}.valid());
  EXPECT_FALSE(PinIdx::invalid().valid());
  EXPECT_EQ(ConflictIdx::invalid().value(), geom::kInvalidIndex);
  EXPECT_TRUE(CandIdx{0}.valid());
  // Raw round-trip at the Problem/Assignment boundary.
  const CandIdx i{7};
  EXPECT_EQ(i.value(), 7);
  EXPECT_EQ(i.idx(), 7u);
  EXPECT_EQ(CandIdx{i.value()}, i);
  // Ordering matches the raw ids (sort keys, dedup, CSR rows rely on it).
  EXPECT_LT(CandIdx{3}, CandIdx{4});
  EXPECT_EQ(TrackIdx{std::size_t{9}}.idx(), 9u);
}

}  // namespace
}  // namespace cpr::core
