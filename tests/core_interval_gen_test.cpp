#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <tuple>

#include "core/interval_gen.h"
#include "db/panel.h"
#include "gen/generator.h"
#include "obs/names.h"

namespace cpr::core {
namespace {

using db::Design;
using db::Layer;
using geom::Interval;
using geom::Rect;

/// Fig. 3-style single-row scenario: net A = {a2(col2), a1(col10), a3(col30)},
/// diff-net pins b1(col15) and d1(col22) inside A's bounding box.
Design fig3Design() {
  Design d("fig3", /*width=*/40, /*numRows=*/1, /*tracksPerRow=*/10);
  const db::Index nA = d.addNet("A");
  const db::Index nB = d.addNet("B");
  const db::Index nD = d.addNet("D");
  d.addPin("a1", nA, Rect{Interval::point(10), Interval{2, 4}});
  d.addPin("a2", nA, Rect{Interval::point(2), Interval{1, 3}});
  d.addPin("a3", nA, Rect{Interval::point(30), Interval{1, 3}});
  d.addPin("b1", nB, Rect{Interval::point(15), Interval{3, 5}});
  d.addPin("d1", nD, Rect{Interval::point(22), Interval{3, 5}});
  return d;
}

PanelKernel rowKernel(const Design& d, const GenOptions& opts = {}) {
  const db::Panel panel = db::extractPanel(d, 0);
  return buildPanelKernel(d, {&panel, 1}, opts);
}

PinIdx localPin(const PanelKernel& k, const Design& d,
                const std::string& name) {
  for (std::size_t j = 0; j < k.numPins(); ++j) {
    if (d.pin(k.designPinOf(PinIdx{j})).name == name) return PinIdx{j};
  }
  return PinIdx::invalid();
}

/// Builds one kernel over `panels` and checks generation's bookkeeping
/// against a brute-force recount: each candidate covers exactly the kernel
/// pins of its net whose shape holds its track and whose columns lie inside
/// its span, listed in the track bucket's order (ascending x.lo); no two
/// candidates share (net, track, lo, hi); and `gen.intervals.shared` counts
/// the candidates covering more than one pin.
void expectGenerationInvariants(const Design& d,
                                std::span<const db::Panel> panels,
                                const std::string& what) {
  obs::Collector stats;
  const PanelKernel k = buildPanelKernel(d, panels, {}, &stats);
  ASSERT_GT(k.numIntervals(), 0u) << what;
  std::set<std::tuple<db::Index, geom::Coord, geom::Coord, geom::Coord>> seen;
  long shared = 0;
  for (std::size_t i = 0; i < k.numIntervals(); ++i) {
    const CandIdx c{i};
    const Interval span = k.spanOf(c);
    EXPECT_TRUE(seen.emplace(k.netOf(c), k.trackOf(c), span.lo, span.hi).second)
        << what << ": duplicate candidate " << i;
    std::vector<PinIdx> want;
    for (std::size_t j = 0; j < k.numPins(); ++j) {
      const db::Pin& pin = d.pin(k.designPinOf(PinIdx{j}));
      if (pin.net == k.netOf(c) && pin.shape.y.contains(k.trackOf(c)) &&
          span.contains(pin.shape.x))
        want.push_back(PinIdx{j});
    }
    const std::span<const PinIdx> pins = k.pinsOf(c);
    std::vector<PinIdx> got(pins.begin(), pins.end());
    for (std::size_t a = 1; a < got.size(); ++a) {
      EXPECT_LE(d.pin(k.designPinOf(got[a - 1])).shape.x.lo,
                d.pin(k.designPinOf(got[a])).shape.x.lo)
          << what << ": candidate " << i << " pins out of bucket order";
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, want) << what << ": candidate " << i;
    shared += got.size() > 1 ? 1 : 0;
  }
  EXPECT_EQ(stats.counter(obs::names::kGenShared), shared) << what;
  for (std::size_t j = 0; j < k.numPins(); ++j) {
    const CandIdx mi = k.minimalIntervalOf(PinIdx{j});
    if (!mi.valid()) continue;
    EXPECT_TRUE(k.isMinimal(mi)) << what;
    EXPECT_EQ(k.spanOf(mi), d.pin(k.designPinOf(PinIdx{j})).shape.x) << what;
  }
}

TEST(IntervalGen, CoverageAndDedupeMatchBruteForceOnSuitePanels) {
  for (const char* name : {"ecc", "efc"}) {
    const Design d = gen::makeSuiteDesign(gen::suiteSpec(name));
    const std::vector<db::Panel> panels = db::extractPanels(d);
    ASSERT_FALSE(panels.empty());
    for (std::size_t p = 0; p < panels.size(); ++p) {
      expectGenerationInvariants(
          d, {&panels[p], 1},
          std::string(name) + " panel " + std::to_string(p));
    }
  }
}

TEST(IntervalGen, CoverageAndDedupeMatchBruteForceOnMergedPanels) {
  // Several panels in one kernel, as the Fig. 6 sweep builds them.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    gen::GenOptions o;
    o.seed = seed;
    o.width = 160;
    o.numRows = 4;
    o.pinDensity = 0.35;
    o.maxNetSpan = 60;
    o.blockagesPerRow = 2;
    const Design d = gen::generate(o);
    const std::vector<db::Panel> panels = db::extractPanels(d);
    expectGenerationInvariants(d, panels, "seed " + std::to_string(seed));
  }
}

TEST(IntervalGen, EveryPinGetsAMinimalInterval) {
  const Design d = fig3Design();
  const PanelKernel k = rowKernel(d);
  ASSERT_EQ(k.numPins(), 5u);
  for (std::size_t j = 0; j < k.numPins(); ++j) {
    const CandIdx mi = k.minimalIntervalOf(PinIdx{j});
    ASSERT_TRUE(mi.valid());
    EXPECT_TRUE(k.isMinimal(mi));
    EXPECT_EQ(k.spanOf(mi), d.pin(k.designPinOf(PinIdx{j})).shape.x);
    ASSERT_EQ(k.pinsOf(mi).size(), 1u);  // minimum interval covers only its pin
  }
}

TEST(IntervalGen, CandidatesCoverTheirPinAndStayInBox) {
  const Design d = fig3Design();
  const PanelKernel k = rowKernel(d);
  for (std::size_t j = 0; j < k.numPins(); ++j) {
    const db::Pin& pin = d.pin(k.designPinOf(PinIdx{j}));
    const Interval box = d.netBox(pin.net).x;
    for (const CandIdx i : k.candidatesOf(PinIdx{j})) {
      EXPECT_TRUE(k.spanOf(i).contains(pin.shape.x))
          << "interval " << k.spanOf(i) << " misses pin " << pin.name;
      EXPECT_TRUE(box.contains(k.spanOf(i)))
          << "interval " << k.spanOf(i) << " outside box " << box;
      EXPECT_TRUE(pin.shape.y.contains(k.trackOf(i)));
      EXPECT_EQ(k.netOf(i), pin.net);
    }
  }
}

TEST(IntervalGen, DiffNetCutLinesAreEnumerated) {
  const Design d = fig3Design();
  const PanelKernel k = rowKernel(d);
  const PinIdx a1 = localPin(k, d, "a1");
  // On track 3, b1(15) and d1(22) sit right of a1(10) inside box [2,30]:
  // right edges {14, 21, 30}, left edge {2}; plus minimum [10,10].
  std::set<std::pair<geom::Coord, geom::Coord>> spans;
  for (const CandIdx i : k.candidatesOf(a1)) {
    if (k.trackOf(i) == 3) spans.insert({k.spanOf(i).lo, k.spanOf(i).hi});
  }
  EXPECT_TRUE(spans.count({2, 14}));   // stop before b1 (paper's I^a1_1)
  EXPECT_TRUE(spans.count({2, 21}));   // stop before d1 (paper's I^a1_2)
  EXPECT_TRUE(spans.count({2, 30}));   // maximum interval
  EXPECT_TRUE(spans.count({10, 10}));  // minimum interval
  EXPECT_EQ(spans.size(), 4u);
}

TEST(IntervalGen, TracksWithoutDiffNetPinsGetMaximumInterval) {
  const Design d = fig3Design();
  const PanelKernel k = rowKernel(d);
  const PinIdx a1 = localPin(k, d, "a1");
  // Track 2: no diff-net pins (b1/d1 start at track 3) → only the maximum
  // [2,30] and minimum [10,10].
  std::set<std::pair<geom::Coord, geom::Coord>> spans;
  for (const CandIdx i : k.candidatesOf(a1)) {
    if (k.trackOf(i) == 2) spans.insert({k.spanOf(i).lo, k.spanOf(i).hi});
  }
  EXPECT_TRUE(spans.count({2, 30}));
  EXPECT_TRUE(spans.count({10, 10}));
  EXPECT_EQ(spans.size(), 2u);
}

TEST(IntervalGen, SharedIntervalCoversMultipleSameNetPins) {
  const Design d = fig3Design();
  const PanelKernel k = rowKernel(d);
  // The maximum interval [2,30] on track 2 covers a2(2), a1(10) and a3(30):
  // one candidate shared by three pins (an intra-panel connection).
  bool found = false;
  for (std::size_t i = 0; i < k.numIntervals(); ++i) {
    if (k.trackOf(CandIdx{i}) == 2 && k.spanOf(CandIdx{i}) == Interval(2, 30)) {
      EXPECT_EQ(k.pinsOf(CandIdx{i}).size(), 3u);
      EXPECT_EQ(k.degreeOf(CandIdx{i}), 3);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(IntervalGen, WideDiffNetPinStartingLeftOfTheBoxStillCuts) {
  // b1 spans columns 0..7 and overlaps a2's box [3, 20] from its left;
  // its cut line (column 8) bounds a2's strips on the tracks they share.
  Design d("wide", 40, /*numRows=*/1, /*tracksPerRow=*/10);
  const db::Index nA = d.addNet("A");
  const db::Index nB = d.addNet("B");
  d.addPin("a1", nA, Rect{Interval::point(3), Interval{0, 1}});
  d.addPin("a2", nA, Rect{Interval::point(12), Interval{2, 4}});
  d.addPin("a3", nA, Rect{Interval::point(20), Interval{0, 1}});
  d.addPin("b1", nB, Rect{Interval{0, 7}, Interval{3, 5}});
  const PanelKernel k = rowKernel(d);
  const PinIdx a2 = localPin(k, d, "a2");
  std::set<std::pair<geom::Coord, geom::Coord>> spans;
  for (const CandIdx i : k.candidatesOf(a2)) {
    if (k.trackOf(i) == 3) spans.insert({k.spanOf(i).lo, k.spanOf(i).hi});
  }
  EXPECT_TRUE(spans.count({3, 20}));   // box-wide
  EXPECT_TRUE(spans.count({8, 20}));   // stop after b1
  EXPECT_TRUE(spans.count({12, 12}));  // minimum interval
  EXPECT_EQ(spans.size(), 3u);
}

TEST(IntervalGen, BlockageClipsAvailableRange) {
  Design d = fig3Design();
  d.addBlockage(Layer::M2, Rect{Interval{18, 25}, Interval{2, 2}});
  const PanelKernel k = rowKernel(d);
  const PinIdx a1 = localPin(k, d, "a1");
  for (const CandIdx i : k.candidatesOf(a1)) {
    if (k.trackOf(i) == 2) {
      EXPECT_LE(k.spanOf(i).hi, 17);
    }
  }
}

TEST(IntervalGen, FullyBlockedTrackSkipped) {
  Design d = fig3Design();
  // Block a1's column on tracks 2 and 3; only track 4 stays accessible.
  d.addBlockage(Layer::M2, Rect{Interval{9, 11}, Interval{2, 3}});
  const PanelKernel k = rowKernel(d);
  const PinIdx a1 = localPin(k, d, "a1");
  ASSERT_TRUE(a1.valid());
  EXPECT_FALSE(k.candidatesOf(a1).empty());
  for (const CandIdx i : k.candidatesOf(a1)) {
    EXPECT_EQ(k.trackOf(i), 4);
  }
}

TEST(IntervalGen, InaccessiblePinReported) {
  Design d("t", 20, 1, 10);
  const db::Index n = d.addNet("A");
  d.addPin("p", n, Rect{Interval::point(5), Interval{2, 3}});
  d.addPin("q", n, Rect{Interval::point(12), Interval{2, 3}});
  d.addBlockage(Layer::M2, Rect{Interval{4, 6}, Interval{2, 3}});  // buries p
  obs::Collector stats;
  const db::Panel panel = db::extractPanel(d, 0);
  const PanelKernel k = buildPanelKernel(d, {&panel, 1}, {}, &stats);
  const PinIdx lp = localPin(k, d, "p");
  EXPECT_TRUE(k.candidatesOf(lp).empty());
  EXPECT_FALSE(k.minimalIntervalOf(lp).valid());
  EXPECT_EQ(stats.counter(obs::names::kGenBlockedPins), 1);
}

TEST(IntervalGen, MaxExtentCapsLongNets) {
  const Design d = fig3Design();
  GenOptions opts;
  opts.maxExtent = 3;  // paper footnote 1: estimated M2 routing box
  const PanelKernel k = rowKernel(d, opts);
  const PinIdx a1 = localPin(k, d, "a1");
  for (const CandIdx i : k.candidatesOf(a1)) {
    EXPECT_GE(k.spanOf(i).lo, 7);
    EXPECT_LE(k.spanOf(i).hi, 13);
  }
}

TEST(IntervalGen, ProfitModelsDifferOnLongIntervals) {
  const Design d = fig3Design();
  const PanelKernel sq = rowKernel(d);
  GenOptions linear;
  linear.profitModel = ProfitModel::LinearSpan;
  const PanelKernel lin = rowKernel(d, linear);
  ASSERT_EQ(sq.numIntervals(), lin.numIntervals());
  for (std::size_t i = 0; i < sq.numIntervals(); ++i) {
    const CandIdx ii{i};
    const double span = static_cast<double>(sq.spanOf(ii).span());
    EXPECT_NEAR(sq.profitOf(ii), std::sqrt(span), 1e-12);
    EXPECT_NEAR(lin.profitOf(ii), span, 1e-12);
    EXPECT_EQ(lin.weightOf(ii), lin.degreeOf(ii) * span);
  }
}

TEST(IntervalGen, MultiPanelMergeKeepsPerPanelPins) {
  Design d("two", 40, 2, 10);
  const db::Index nA = d.addNet("A");
  const db::Index nB = d.addNet("B");
  d.addPin("a1", nA, Rect{Interval::point(5), Interval{2, 4}});
  d.addPin("a2", nA, Rect{Interval::point(15), Interval{2, 4}});
  d.addPin("b1", nB, Rect{Interval::point(5), Interval{12, 14}});
  d.addPin("b2", nB, Rect{Interval::point(15), Interval{12, 14}});
  const std::vector<db::Panel> panels = db::extractPanels(d);
  const PanelKernel merged = buildPanelKernel(d, panels);
  EXPECT_EQ(merged.numPins(), 4u);
  // Intervals from different panels must sit on that panel's tracks.
  for (std::size_t i = 0; i < merged.numIntervals(); ++i) {
    const CandIdx ii{i};
    if (merged.netOf(ii) == nA) {
      EXPECT_LE(merged.trackOf(ii), 9);
    }
    if (merged.netOf(ii) == nB) {
      EXPECT_GE(merged.trackOf(ii), 10);
    }
  }
}

}  // namespace
}  // namespace cpr::core
