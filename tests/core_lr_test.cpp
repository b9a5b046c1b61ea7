#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>

#include "core/lr_solver.h"
#include "db/panel.h"
#include "gen/generator.h"
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
  opts.stallLimit = 0;  // only the bound or zero violations stop it
  obs::Collector stats;
  Assignment a = solveLr(k, opts, &stats);
  EXPECT_GT(stats.counter(obs::names::kLrIterations), 0);
  EXPECT_LE(stats.counter(obs::names::kLrIterations), kLrMaxIterations);
  EXPECT_EQ(a.violations, 0);
  // An expired deadline is checked after the first iteration: exactly one
  // runs, and conflict removal still cleans up.
  obs::Collector cut;
  a = solveLr(k, opts, &cut, nullptr, support::Deadline::after(0));
  EXPECT_EQ(cut.counter(obs::names::kLrIterations), 1);
  EXPECT_EQ(cut.counter(obs::names::kLrTimeout), 1);
  EXPECT_EQ(a.violations, 0);
}

TEST(LrSolver, SkipConflictRemovalMayLeaveViolations) {
  // With a single iteration and no cleanup, dense instances keep conflicts.
  const db::Design d = tu::tinyDesign(5, 40, 0.6);
  const PanelKernel k = tu::panelKernel(d);
  LrOptions opts;
  opts.skipConflictRemoval = true;
  obs::Collector stats;
  const Assignment a =
      solveLr(k, opts, &stats, nullptr, support::Deadline::after(0));
  EXPECT_EQ(stats.counter(obs::names::kLrTimeout), 1);  // one iteration ran
  const AssignmentAudit audit_ = audit(k, a);
  EXPECT_EQ(audit_.unassignedPins, 0);  // every pin still assigned
  // violations is the count under the conflict-set definition; the direct
  // geometric audit must agree about whether any conflict exists.
  EXPECT_EQ(a.violations > 0, audit_.overlapsBetweenNets > 0);
}

TEST(LrSolver, ObjectiveImprovesOnAllMinimalBaseline) {
  // On a sparse panel LR should beat the trivial all-minimal solution.
  const db::Design d = tu::tinyDesign(11, 60, 0.15);
  const PanelKernel k = tu::panelKernel(d);
  const Assignment a = solveLr(k);
  EXPECT_GT(a.objective, tu::minimalProfitBound(k) + 1e-6);
}

// ---- Oracle for the event list ----------------------------------------

bool refKeyLess(const LrSortKey& a, const LrSortKey& b) {
  if (a.gain != b.gain) return a.gain > b.gain;
  if (a.degree != b.degree) return a.degree > b.degree;
  return a.idx < b.idx;
}

struct ReferenceRun {
  Assignment a;
  std::vector<std::vector<double>> rows;  ///< `lr.iter` rows without "src"
};

/// The LR the event list replaced, kept as the oracle: every candidate sits
/// in one key order, re-keyed after each penalty update by merging the
/// dirty candidates back in, maxGains walks all of it, and conflict removal
/// scans every pin for each member.
ReferenceRun referenceLr(const PanelKernel& k, const LrOptions& opts) {
  const std::size_t n = k.numIntervals();
  const std::size_t nPins = k.numPins();
  const std::size_t nCs = k.numConflicts();
  ReferenceRun run;
  std::vector<double> penalties(n, 0.0);
  double lambdaL1 = 0.0;
  std::vector<int> csCount(nCs, 0);
  std::vector<ConflictIdx> touched;

  std::vector<LrSortKey> keys(n);
  for (std::size_t i = 0; i < n; ++i)
    keys[i] = LrSortKey{k.weightOf(CandIdx{i}), k.degreeOf(CandIdx{i}),
                        CandIdx{i}};
  std::sort(keys.begin(), keys.end(), refKeyLess);
  std::vector<char> dirtyFlag(n, 0);
  std::vector<CandIdx> dirtyList;
  auto refreshKeys = [&] {
    if (dirtyList.empty()) return;
    std::vector<LrSortKey> dirtyKeys, merged;
    for (const CandIdx i : dirtyList)
      dirtyKeys.push_back(
          LrSortKey{k.weightOf(i) - penalties[i.idx()], k.degreeOf(i), i});
    std::sort(dirtyKeys.begin(), dirtyKeys.end(), refKeyLess);
    std::size_t a = 0;
    std::size_t b = 0;
    while (a < keys.size() || b < dirtyKeys.size()) {
      while (a < keys.size() && dirtyFlag[keys[a].idx.idx()]) ++a;
      if (a == keys.size()) {
        while (b < dirtyKeys.size()) merged.push_back(dirtyKeys[b++]);
        break;
      }
      if (b == dirtyKeys.size() || refKeyLess(keys[a], dirtyKeys[b])) {
        merged.push_back(keys[a++]);
      } else {
        merged.push_back(dirtyKeys[b++]);
      }
    }
    keys.swap(merged);
    for (const CandIdx i : dirtyList) dirtyFlag[i.idx()] = 0;
    dirtyList.clear();
  };

  std::vector<CandIdx> curSel, curAssign, bestSel, bestAssign;
  auto runMaxGains = [&] {
    curSel.clear();
    curAssign.assign(nPins, CandIdx::invalid());
    for (const LrSortKey& key : keys) {
      const std::span<const PinIdx> pins = k.pinsOf(key.idx);
      const bool allFree =
          std::all_of(pins.begin(), pins.end(),
                      [&](PinIdx q) { return !curAssign[q.idx()].valid(); });
      if (!allFree || pins.empty()) continue;
      curSel.push_back(key.idx);
      for (const PinIdx q : pins) {
        if (!curAssign[q.idx()].valid()) curAssign[q.idx()] = key.idx;
      }
    }
    for (std::size_t j = 0; j < nPins; ++j) {
      if (curAssign[j].valid()) continue;
      const CandIdx mi = k.minimalIntervalOf(PinIdx{j});
      if (!mi.valid()) continue;
      curSel.push_back(mi);
      curAssign[j] = mi;
    }
  };

  int bestVio = std::numeric_limits<int>::max();
  bool haveBest = false;
  int stall = 0;
  for (int it = 1; it <= kLrMaxIterations; ++it) {
    refreshKeys();
    runMaxGains();
    touched.clear();
    for (const CandIdx i : curSel) {
      for (const ConflictIdx m : k.conflictsOf(i)) {
        if (csCount[m.idx()]++ == 0) touched.push_back(m);
      }
    }
    int vio = 0;
    const double step = 1.0 / std::pow(static_cast<double>(it), opts.alpha);
    for (const ConflictIdx m : touched) {
      const int count = csCount[m.idx()];
      if (count <= 1) continue;
      ++vio;
      const double tk = step * static_cast<double>(k.conflictSpanOf(m));
      const double delta = tk * static_cast<double>(count - 1);
      lambdaL1 += delta;
      for (const CandIdx i : k.membersOf(m)) {
        penalties[i.idx()] += delta;
        if (!dirtyFlag[i.idx()]) {
          dirtyFlag[i.idx()] = 1;
          dirtyList.push_back(i);
        }
      }
    }
    for (const ConflictIdx m : touched) csCount[m.idx()] = 0;
    const int newBest = std::min(bestVio, vio);
    double curObjective = 0.0;
    for (std::size_t j = 0; j < nPins; ++j) {
      if (curAssign[j].valid()) curObjective += k.profitOf(curAssign[j]);
    }
    run.rows.push_back({static_cast<double>(it), static_cast<double>(vio),
                        static_cast<double>(newBest), lambdaL1, curObjective});
    if (vio < bestVio) {
      bestVio = vio;
      bestSel.swap(curSel);
      bestAssign.swap(curAssign);
      haveBest = true;
      stall = 0;
    } else if (opts.stallLimit > 0 && ++stall >= opts.stallLimit) {
      break;
    }
    if (bestVio == 0) break;
  }
  if (!haveBest) bestAssign.assign(nPins, CandIdx::invalid());

  std::vector<char> selFlag(n, 0);
  for (const CandIdx i : bestSel) selFlag[i.idx()] = 1;
  auto selectedCount = [&](std::size_t m) {
    int count = 0;
    for (const CandIdx i : k.membersOf(ConflictIdx{m}))
      count += selFlag[i.idx()] ? 1 : 0;
    return count;
  };
  if (!opts.skipConflictRemoval && bestVio > 0) {
    auto shrinkable = [&](CandIdx i) {
      for (std::size_t q = 0; q < nPins; ++q) {
        if (bestAssign[q] == i && k.minimalIntervalOf(PinIdx{q}) != i)
          return true;
      }
      return false;
    };
    auto shrink = [&](CandIdx i) {
      selFlag[i.idx()] = 0;
      for (std::size_t q = 0; q < nPins; ++q) {
        if (bestAssign[q] != i) continue;
        const CandIdx mi = k.minimalIntervalOf(PinIdx{q});
        bestAssign[q] = mi;
        selFlag[mi.idx()] = 1;
      }
    };
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t m = 0; m < nCs; ++m) {
        if (selectedCount(m) <= 1) continue;
        std::vector<CandIdx> members;
        bool anyUnshrinkable = false;
        for (const CandIdx i : k.membersOf(ConflictIdx{m})) {
          if (!selFlag[i.idx()]) continue;
          members.push_back(i);
          anyUnshrinkable |= !shrinkable(i);
        }
        CandIdx keep = CandIdx::invalid();
        if (!anyUnshrinkable) {
          for (const CandIdx i : members) {
            if (!keep.valid() || k.weightOf(i) > k.weightOf(keep)) keep = i;
          }
        }
        for (const CandIdx i : members) {
          if (i == keep || !shrinkable(i)) continue;
          shrink(i);
          changed = true;
        }
        for (const CandIdx i : members) {
          if (i == keep || shrinkable(i)) continue;
          bool assigned = false;
          for (std::size_t q = 0; q < nPins && !assigned; ++q)
            assigned = bestAssign[q] == i;
          if (!assigned && selFlag[i.idx()]) {
            selFlag[i.idx()] = 0;
            changed = true;
          }
        }
      }
    }
  }

  if (opts.reexpandRounds > 0 && nPins > 0) {
    std::vector<int> usage(n, 0), freedWithin(n, 0);
    for (std::size_t j = 0; j < nPins; ++j) {
      if (bestAssign[j].valid()) ++usage[bestAssign[j].idx()];
    }
    for (int round = 0; round < opts.reexpandRounds; ++round) {
      bool improved = false;
      for (std::size_t j = 0; j < nPins; ++j) {
        const CandIdx cur = bestAssign[j];
        if (!cur.valid()) continue;
        for (const CandIdx i : k.sortedCandidatesOf(PinIdx{j})) {
          if (k.profitOf(i) <= k.profitOf(cur)) break;
          if (i == cur) continue;
          const std::span<const PinIdx> covered = k.pinsOf(i);
          double gain = 0.0;
          bool ok = true;
          for (const PinIdx q : covered) {
            const CandIdx old = bestAssign[q.idx()];
            if (!old.valid()) {
              ok = false;
              break;
            }
            gain += k.profitOf(i) - k.profitOf(old);
            ++freedWithin[old.idx()];
          }
          ok = ok && gain > 1e-12;
          for (const PinIdx q : covered) {
            const CandIdx old = bestAssign[q.idx()];
            if (ok && old != i && freedWithin[old.idx()] < usage[old.idx()])
              ok = false;
          }
          for (const ConflictIdx m : k.conflictsOf(i)) {
            for (const CandIdx sel : k.membersOf(m)) {
              if (!ok || sel == i || usage[sel.idx()] == 0) continue;
              if (freedWithin[sel.idx()] < usage[sel.idx()]) ok = false;
            }
          }
          for (const PinIdx q : covered) {
            const CandIdx old = bestAssign[q.idx()];
            if (old.valid()) freedWithin[old.idx()] = 0;
          }
          if (!ok) continue;
          for (const PinIdx q : covered) {
            --usage[bestAssign[q.idx()].idx()];
            bestAssign[q.idx()] = i;
            ++usage[i.idx()];
          }
          improved = true;
          break;
        }
      }
      if (!improved) break;
    }
  }

  run.a.intervalOfPin.assign(nPins, geom::kInvalidIndex);
  for (std::size_t j = 0; j < nPins; ++j)
    run.a.intervalOfPin[j] = bestAssign[j].value();
  for (const Index i : run.a.intervalOfPin) {
    if (i != geom::kInvalidIndex) run.a.objective += k.profitOf(CandIdx{i});
  }
  std::fill(selFlag.begin(), selFlag.end(), 0);
  for (const Index i : run.a.intervalOfPin) {
    if (i != geom::kInvalidIndex) selFlag[CandIdx{i}.idx()] = 1;
  }
  for (std::size_t m = 0; m < nCs; ++m) {
    if (selectedCount(m) > 1) ++run.a.violations;
  }
  return run;
}

/// Random single-panel instance in the generator's shape: pins at least
/// three columns apart per track, each with its minimum interval, its
/// box-wide strip and a few cut-line strips, every strip covering each
/// same-net pin inside it (so same-net neighbours share strips). Spans
/// come from a small range, so equal weights are common.
PanelKernel randomKernel(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto pick = [&](int lo, int hi) {
    return lo + static_cast<int>(rng() % std::uint64_t(hi - lo + 1));
  };
  struct P {
    Coord track, col;
    Index net;
  };
  const int nTracks = pick(1, 3);
  const int nNets = pick(2, 4);
  const Coord width = 48;
  std::vector<P> pins;
  for (Coord t = 0; t < nTracks; ++t) {
    for (Coord x = pick(0, 2); x < width; x += pick(3, 6)) {
      if (pins.size() < 2 || pick(0, 9) < 7)
        pins.push_back(P{t, x, pick(0, nNets - 1)});
    }
  }
  // The first two pins of track 0 share a net, at most six columns apart,
  // so every instance has a shared strip.
  if (pins.size() >= 2) pins[1].net = pins[0].net;
  std::shuffle(pins.begin(), pins.end(), rng);

  PanelKernelBuilder b(ProfitModel::SqrtSpan);
  for (std::size_t j = 0; j < pins.size(); ++j)
    (void)b.addPin(static_cast<Index>(j));
  auto covered = [&](Coord track, geom::Interval span, Index net) {
    std::vector<PinIdx> out;
    for (std::size_t q = 0; q < pins.size(); ++q) {
      if (pins[q].track == track && pins[q].net == net &&
          span.contains(pins[q].col))
        out.push_back(PinIdx{q});
    }
    return out;
  };
  for (std::size_t j = 0; j < pins.size(); ++j) {
    const P& p = pins[j];
    const geom::Interval own = geom::Interval::point(p.col);
    const CandIdx mi = b.addInterval(p.track, own, p.net,
                                     covered(p.track, own, p.net), true);
    b.setMinimalInterval(PinIdx{j}, mi);
    // Cut lines: one column past each diff-net pin within reach.
    std::vector<Coord> lefts{std::max<Coord>(0, p.col - pick(6, 16))};
    std::vector<Coord> rights{std::min<Coord>(width, p.col + pick(6, 16))};
    for (const P& q : pins) {
      if (q.track != p.track || q.net == p.net) continue;
      if (q.col < p.col && q.col + 1 >= lefts[0]) lefts.push_back(q.col + 1);
      if (q.col > p.col && q.col - 1 <= rights[0]) rights.push_back(q.col - 1);
    }
    // The box-wide strip, then a few random cut-line strips.
    (void)b.addInterval(p.track, geom::Interval{lefts[0], rights[0]}, p.net,
                        covered(p.track, {lefts[0], rights[0]}, p.net), false);
    for (int c = pick(1, 4); c > 0; --c) {
      const geom::Interval span{lefts[rng() % lefts.size()],
                                rights[rng() % rights.size()]};
      (void)b.addInterval(p.track, span, p.net,
                          covered(p.track, span, p.net), false);
    }
  }
  return std::move(b).finish();
}

/// Runs both solvers on `k`; returns the reference's iteration count. Also
/// checks the event list's premise: multipliers only rise, so the
/// `lambda_norm` column of `lr.iter` never falls from one row to the next.
std::size_t expectMatchesReference(const PanelKernel& k,
                                   const LrOptions& opts, LrScratch& scratch,
                                   const std::string& what) {
  obs::Collector stats;
  const Assignment got = solveLr(k, opts, &stats, &scratch);
  const ReferenceRun want = referenceLr(k, opts);
  EXPECT_EQ(got.intervalOfPin, want.a.intervalOfPin) << what;
  EXPECT_EQ(got.objective, want.a.objective) << what;
  EXPECT_EQ(got.violations, want.a.violations) << what;
  std::vector<std::vector<double>> rows;
  const auto it = stats.series().find(obs::names::kLrIterSeries);
  if (it != stats.series().end()) {
    const std::vector<std::string>& cols = it->second.columns;
    const auto lambdaCol = static_cast<std::size_t>(
        std::find(cols.begin(), cols.end(), "lambda_norm") - cols.begin());
    EXPECT_LT(lambdaCol, cols.size()) << what;
    double lambdaNorm = 0.0;  // every multiplier starts at 0
    for (const std::vector<double>& row : it->second.rows) {
      if (lambdaCol < cols.size()) {
        EXPECT_GE(row[lambdaCol], lambdaNorm) << what << " iter " << row[1];
        lambdaNorm = row[lambdaCol];
      }
      rows.emplace_back(row.begin() + 1, row.end());  // drop "src"
    }
  }
  EXPECT_EQ(rows, want.rows) << what;
  return want.rows.size();
}

LrOptions noStall() {
  LrOptions o;
  o.stallLimit = 0;
  return o;
}

TEST(LrEventList, MatchesFullKeyOrderOnRandomKernels) {
  LrScratch scratch;  // reused across kernels, as in the optimizer
  long shared = 0;
  long ties = 0;
  long iterations = 0;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const PanelKernel k = randomKernel(seed);
    // Every kernel must exercise shared intervals and equal weights.
    std::vector<double> weights;
    long kernelShared = 0;
    for (std::size_t i = 0; i < k.numIntervals(); ++i) {
      kernelShared += k.degreeOf(CandIdx{i}) >= 2 ? 1 : 0;
      weights.push_back(k.weightOf(CandIdx{i}));
    }
    std::sort(weights.begin(), weights.end());
    const long kernelTies =
        static_cast<long>(weights.size()) -
        std::distance(weights.begin(),
                      std::unique(weights.begin(), weights.end()));
    ASSERT_GT(kernelShared, 0) << "seed " << seed;
    ASSERT_GT(kernelTies, 0) << "seed " << seed;
    shared += kernelShared;
    ties += kernelTies;
    const std::string tag = "seed " + std::to_string(seed);
    expectMatchesReference(k, LrOptions{}, scratch, tag + " default");
    iterations += static_cast<long>(
        expectMatchesReference(k, noStall(), scratch, tag + " stallLimit=0"));
  }
  // The instances must make LR work: many penalty updates, not one pass.
  EXPECT_GT(iterations, 60L * 20);
  EXPECT_GT(shared, 60L);
  EXPECT_GT(ties, 60L);
}

TEST(LrEventList, PackedKeysOrderLikeKeyLess) {
  // Gains with ties, both zeros, subnormals, infinities and both signs;
  // degrees with ties and extremes; indices across the 32-bit range.
  using Limits = std::numeric_limits<double>;
  const double gains[] = {-Limits::infinity(), -1e300, -2.5, -1.0,
                          -Limits::denorm_min(), -0.0, 0.0,
                          Limits::denorm_min(), 1e-300, 0.1 + 0.2, 0.3, 1.0,
                          2.5, 1e300, Limits::infinity()};
  const Index degrees[] = {0, 1, 2, 3, 1000, std::numeric_limits<Index>::max()};
  const Index ids[] = {0, 1, 7, 65536, std::numeric_limits<Index>::max() - 1};
  std::vector<LrSortKey> keys;
  for (const double g : gains)
    for (const Index d : degrees)
      for (const Index i : ids) keys.push_back(LrSortKey{g, d, CandIdx{i}});
  for (const LrSortKey& a : keys) {
    const LrPackedKey pa = packLrKey(a);
    EXPECT_EQ(pa.idx(), a.idx);
    for (const LrSortKey& b : keys) {
      ASSERT_EQ(pa < packLrKey(b), refKeyLess(a, b))
          << a.gain << "/" << a.degree << "/" << a.idx.value() << " vs "
          << b.gain << "/" << b.degree << "/" << b.idx.value();
    }
  }
}

TEST(LrEventList, MatchesFullKeyOrderOnEverySuitePanel) {
  LrScratch scratch;
  for (const char* name : {"ecc", "efc"}) {
    const db::Design d = gen::makeSuiteDesign(gen::suiteSpec(name));
    const std::vector<db::Panel> panels = db::extractPanels(d);
    ASSERT_FALSE(panels.empty());
    for (std::size_t p = 0; p < panels.size(); ++p) {
      const PanelKernel k = buildPanelKernel(d, {&panels[p], 1});
      const std::string tag = std::string(name) + " panel " + std::to_string(p);
      expectMatchesReference(k, LrOptions{}, scratch, tag);
    }
  }
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
