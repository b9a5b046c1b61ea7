/// \file core_panel_kernel_test.cpp
/// Invariant tests for `PanelKernel`, the one instance representation: on
/// randomly generated panels the CSR adjacencies must be exact transposes of
/// each other with ascending transposed rows, the per-interval columns must
/// match their definitions, the conflict rows must be exactly the maximal
/// cliques the brute-force reference finds, the `audit` must agree with an
/// independent pairwise recount, and scratch-arena reuse must not change any
/// solver result. Boundary tests pin down `rowSpan` behavior at the edges of
/// the offset arrays (last row, empty panel, single-candidate panel).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <set>
#include <vector>

#include "core/conflict.h"
#include "core/interval_gen.h"
#include "core/panel_kernel.h"
#include "core/solver.h"
#include "db/layer.h"
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

PanelKernel panelKernel(const db::Design& d, int panelIdx,
                        const GenOptions& g = {}) {
  const db::Panel panel = db::extractPanel(d, panelIdx);
  return buildPanelKernel(d, {&panel, 1}, g);
}

/// Unwraps a strong-id span to raw ids.
template <typename T>
std::vector<Index> toRaw(std::span<const T> s) {
  std::vector<Index> out;
  out.reserve(s.size());
  for (const T v : s) out.push_back(v.value());
  return out;
}

/// Checks that `rowsOf` (n rows) and `colsOf` (m rows) are exact transposes:
/// (r, c) is an entry of one iff (c, r) is an entry of the other, with no
/// duplicates, and every `colsOf` row ascends.
template <typename RowFn, typename ColFn>
void expectTransposes(std::size_t n, std::size_t m, RowFn rowsOf,
                      ColFn colsOf) {
  std::set<std::pair<Index, Index>> forward;
  std::size_t entries = 0;
  for (std::size_t r = 0; r < n; ++r) {
    for (const Index c : rowsOf(r)) {
      ASSERT_GE(c, 0);
      ASSERT_LT(std::size_t(c), m);
      EXPECT_TRUE(forward.insert({static_cast<Index>(r), c}).second)
          << "duplicate entry " << c << " in row " << r;
      ++entries;
    }
  }
  std::size_t backEntries = 0;
  for (std::size_t c = 0; c < m; ++c) {
    const std::vector<Index> row = colsOf(c);
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end())) << "row " << c;
    EXPECT_EQ(std::adjacent_find(row.begin(), row.end()), row.end());
    for (const Index r : row) {
      EXPECT_TRUE(forward.count({r, static_cast<Index>(c)}))
          << "entry " << r << " of row " << c << " has no partner";
      ++backEntries;
    }
  }
  EXPECT_EQ(entries, backEntries);
}

class PanelKernelProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PanelKernelProperty, AdjacenciesAreExactTransposes) {
  const db::Design d = randomDesign(GetParam());
  for (int panel = 0; panel < 2; ++panel) {
    const PanelKernel k = panelKernel(d, panel);
    ASSERT_GT(k.numIntervals(), 0u);
    expectTransposes(
        k.numIntervals(), k.numPins(),
        [&](std::size_t i) { return toRaw(k.pinsOf(CandIdx{i})); },
        [&](std::size_t j) { return toRaw(k.candidatesOf(PinIdx{j})); });
    expectTransposes(
        k.numConflicts(), k.numIntervals(),
        [&](std::size_t m) { return toRaw(k.membersOf(ConflictIdx{m})); },
        [&](std::size_t i) { return toRaw(k.conflictsOf(CandIdx{i})); });
    EXPECT_GT(k.footprintBytes(), 0u);
  }
}

TEST_P(PanelKernelProperty, ColumnsMatchTheirDefinitions) {
  const db::Design d = randomDesign(GetParam());
  for (int panel = 0; panel < 2; ++panel) {
    const PanelKernel k = panelKernel(d, panel);
    for (std::size_t i = 0; i < k.numIntervals(); ++i) {
      const CandIdx ii{i};
      const double span = static_cast<double>(k.spanOf(ii).span());
      EXPECT_EQ(k.profitOf(ii), std::sqrt(span));
      EXPECT_EQ(k.degreeOf(ii), static_cast<Index>(k.pinsOf(ii).size()));
      EXPECT_EQ(k.weightOf(ii), k.degreeOf(ii) * k.profitOf(ii));
    }
    for (std::size_t j = 0; j < k.numPins(); ++j) {
      const PinIdx jj{j};
      const db::Pin& pin = d.pin(k.designPinOf(jj));
      // The minimum interval is a candidate covering exactly the pin's
      // columns on one of its tracks.
      const CandIdx mi = k.minimalIntervalOf(jj);
      ASSERT_TRUE(mi.valid());
      EXPECT_TRUE(k.isMinimal(mi));
      EXPECT_EQ(k.spanOf(mi), pin.shape.x);
      EXPECT_TRUE(pin.shape.y.contains(k.trackOf(mi)));
      const std::span<const CandIdx> cand = k.candidatesOf(jj);
      EXPECT_NE(std::find(cand.begin(), cand.end(), mi), cand.end());
      // The profit-sorted view is a permutation of the candidate set in
      // (profit desc, id asc) order.
      const std::span<const CandIdx> sorted = k.sortedCandidatesOf(jj);
      ASSERT_EQ(sorted.size(), cand.size());
      for (std::size_t u = 1; u < sorted.size(); ++u) {
        const double pa = k.profitOf(sorted[u - 1]);
        const double pb = k.profitOf(sorted[u]);
        EXPECT_TRUE(pa > pb || (pa == pb && sorted[u - 1] < sorted[u]))
            << "pin " << j << " position " << u;
      }
      std::vector<CandIdx> a(sorted.begin(), sorted.end());
      std::sort(a.begin(), a.end());
      EXPECT_EQ(a, std::vector<CandIdx>(cand.begin(), cand.end()));
    }
  }
}

TEST_P(PanelKernelProperty, ConflictRowsAreTheMaximalCliques) {
  const db::Design d = randomDesign(GetParam());
  constexpr Coord kGuard = db::kLineEndExtension;
  for (int panel = 0; panel < 2; ++panel) {
    const PanelKernel k = panelKernel(d, panel);
    ASSERT_GT(k.numConflicts(), 0u);
    std::set<std::vector<CandIdx>> rows;
    for (std::size_t m = 0; m < k.numConflicts(); ++m) {
      const ConflictIdx mm{m};
      const std::span<const CandIdx> members = k.membersOf(mm);
      ASSERT_GE(members.size(), 2u);
      // Members share one track and a non-empty guarded intersection whose
      // span is Lm.
      geom::Interval common{std::numeric_limits<Coord>::min(),
                            std::numeric_limits<Coord>::max()};
      for (const CandIdx i : members) {
        EXPECT_EQ(k.trackOf(i), k.conflictTrackOf(mm));
        common = geom::intersect(
            common, geom::Interval{k.spanOf(i).lo - kGuard,
                                   k.spanOf(i).hi + kGuard});
      }
      ASSERT_FALSE(common.empty());
      EXPECT_EQ(k.conflictSpanOf(mm), common.span());
      std::vector<CandIdx> sortedMembers(members.begin(), members.end());
      std::sort(sortedMembers.begin(), sortedMembers.end());
      EXPECT_TRUE(rows.insert(sortedMembers).second) << "duplicate row " << m;
    }
    const std::vector<std::vector<CandIdx>> ref =
        detectConflictsBruteForce(k, kGuard);
    EXPECT_EQ(rows, std::set<std::vector<CandIdx>>(ref.begin(), ref.end()));
  }
}

TEST_P(PanelKernelProperty, AuditMatchesPairwiseRecount) {
  const db::Design d = randomDesign(GetParam());
  const PanelKernel k = panelKernel(d, 0);

  // Audit both a legal assignment and randomly perturbed (possibly illegal,
  // possibly partial) ones against a direct all-pairs recount.
  std::mt19937_64 rng(GetParam() * 7919 + 1);
  Assignment a = solveLr(k);
  for (int round = 0; round < 6; ++round) {
    double objective = 0.0;
    int unassigned = 0;
    bool covered = true;
    std::set<CandIdx> selected;
    for (std::size_t j = 0; j < a.intervalOfPin.size(); ++j) {
      const Index raw = a.intervalOfPin[j];
      if (raw == geom::kInvalidIndex) {
        ++unassigned;
        continue;
      }
      const CandIdx i{raw};
      objective += k.profitOf(i);
      selected.insert(i);
      const std::span<const PinIdx> pins = k.pinsOf(i);
      covered &= std::find(pins.begin(), pins.end(), PinIdx{j}) != pins.end();
    }
    int overlaps = 0;
    for (auto u = selected.begin(); u != selected.end(); ++u) {
      for (auto v = std::next(u); v != selected.end(); ++v) {
        overlaps += k.trackOf(*u) == k.trackOf(*v) &&
                    k.netOf(*u) != k.netOf(*v) &&
                    k.spanOf(*u).overlaps(k.spanOf(*v));
      }
    }
    const AssignmentAudit flat = audit(k, a);
    EXPECT_EQ(flat.objective, objective);
    EXPECT_EQ(flat.unassignedPins, unassigned);
    EXPECT_EQ(flat.overlapsBetweenNets, overlaps);
    EXPECT_EQ(flat.eachPinCovered, covered);

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
    const PanelKernel k = panelKernel(d, panel);
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

TEST(PanelKernelBoundary, EmptyPanelFinishesToEmptyKernel) {
  const PanelKernel k = PanelKernelBuilder(ProfitModel::SqrtSpan).finish();
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
  PanelKernelBuilder b(ProfitModel::SqrtSpan);
  const PinIdx pin = b.addPin(42);
  const std::vector<PinIdx> covered{pin};
  const CandIdx iv = b.addInterval(3, geom::Interval{5, 7}, 0, covered, true);
  b.setMinimalInterval(pin, iv);

  const PanelKernel k = std::move(b).finish();
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
  const PanelKernel k = panelKernel(d, 0);
  ASSERT_GT(k.numPins(), 0u);
  ASSERT_GT(k.numIntervals(), 0u);
  ASSERT_GT(k.numConflicts(), 0u);

  // Row totals of each adjacency agree with its transpose, so the last row
  // of each ends exactly at its data end.
  std::size_t totalCands = 0;
  for (std::size_t j = 0; j < k.numPins(); ++j)
    totalCands += k.candidatesOf(PinIdx{j}).size();
  std::size_t totalDegree = 0;
  for (std::size_t i = 0; i < k.numIntervals(); ++i)
    totalDegree += std::size_t(k.degreeOf(CandIdx{i}));
  EXPECT_EQ(totalCands, totalDegree);
  std::size_t totalMembers = 0;
  for (std::size_t m = 0; m < k.numConflicts(); ++m)
    totalMembers += k.membersOf(ConflictIdx{m}).size();
  std::size_t totalConflictsOf = 0;
  for (std::size_t i = 0; i < k.numIntervals(); ++i)
    totalConflictsOf += k.conflictsOf(CandIdx{i}).size();
  EXPECT_EQ(totalMembers, totalConflictsOf);

  // The last row of each CSR adjacency round-trips through its transpose.
  const std::size_t lastPin = k.numPins() - 1;
  for (const CandIdx i : k.candidatesOf(PinIdx{lastPin})) {
    const std::span<const PinIdx> pins = k.pinsOf(i);
    EXPECT_NE(std::find(pins.begin(), pins.end(), PinIdx{lastPin}),
              pins.end());
  }
  const std::size_t lastIv = k.numIntervals() - 1;
  for (const PinIdx j : k.pinsOf(CandIdx{lastIv})) {
    const std::span<const CandIdx> cand = k.candidatesOf(j);
    EXPECT_EQ(cand.back(), CandIdx{lastIv});  // the largest id comes last
  }
  const std::size_t lastCs = k.numConflicts() - 1;
  for (const CandIdx i : k.membersOf(ConflictIdx{lastCs}))
    EXPECT_EQ(k.conflictsOf(i).back(), ConflictIdx{lastCs});

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
  // Raw round-trip at the Assignment boundary.
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
