/// \file test_util.h
/// Shared helpers for core solver tests: tiny random instances and an
/// exhaustive reference solver for the weighted interval assignment ILP.
#pragma once

#include <limits>
#include <optional>
#include <vector>

#include "core/interval_gen.h"
#include "db/panel.h"
#include "gen/generator.h"

namespace cpr::core::testutil {

/// Small single-row design; `density` controls pin-access competition.
inline db::Design tinyDesign(std::uint64_t seed, geom::Coord width = 24,
                             double density = 0.3) {
  gen::GenOptions o;
  o.name = "tiny";
  o.seed = seed;
  o.width = width;
  o.numRows = 1;
  o.pinDensity = density;
  o.maxNetSpan = width / 2;
  o.maxNetRowSpread = 0;
  o.blockagesPerRow = 0.5;
  o.maxBlockageLen = 4;
  return gen::generate(o);
}

/// Kernel for row 0 (candidates and conflict sets).
inline PanelKernel panelKernel(const db::Design& d, const GenOptions& g = {}) {
  const db::Panel panel = db::extractPanel(d, 0);
  return buildPanelKernel(d, {&panel, 1}, g);
}

/// Exhaustive optimum of Formula (1) by enumerating every per-pin choice
/// tuple (the product of candidate sets Sj). A tuple maps to the ILP point
/// x = indicator of the distinct chosen intervals; it is feasible iff every
/// chosen interval is chosen by *all* pins it covers (equality rows 1b) and
/// no conflict set holds two distinct chosen intervals (1c).
/// Returns nullopt when the search space exceeds `maxTuples`.
inline std::optional<double> bruteForceOptimum(const PanelKernel& k,
                                               std::uint64_t maxTuples = 3'000'000) {
  std::vector<PinIdx> active;
  std::uint64_t tuples = 1;
  for (std::size_t j = 0; j < k.numPins(); ++j) {
    const std::size_t n = k.candidatesOf(PinIdx{j}).size();
    if (n == 0) continue;
    active.push_back(PinIdx{j});
    if (tuples > maxTuples / n) return std::nullopt;
    tuples *= n;
  }

  double best = -std::numeric_limits<double>::infinity();
  bool feasible = false;
  std::vector<CandIdx> choice(active.size());

  auto evaluate = [&]() {
    std::vector<char> selected(k.numIntervals(), 0);
    double obj = 0.0;
    for (const CandIdx i : choice) {
      selected[i.idx()] = 1;
      obj += k.profitOf(i);
    }
    // (1b): a chosen interval must be chosen by every pin it covers.
    std::vector<CandIdx> choiceOfPin(k.numPins());
    for (std::size_t a = 0; a < active.size(); ++a)
      choiceOfPin[active[a].idx()] = choice[a];
    for (std::size_t i = 0; i < k.numIntervals(); ++i) {
      if (!selected[i]) continue;
      for (const PinIdx q : k.pinsOf(CandIdx{i})) {
        if (choiceOfPin[q.idx()] != CandIdx{i}) return;
      }
    }
    // (1c)
    for (std::size_t m = 0; m < k.numConflicts(); ++m) {
      int count = 0;
      for (const CandIdx i : k.membersOf(ConflictIdx{m}))
        count += selected[i.idx()];
      if (count > 1) return;
    }
    feasible = true;
    if (obj > best) best = obj;
  };

  auto rec = [&](auto&& self, std::size_t a) -> void {
    if (a == active.size()) {
      evaluate();
      return;
    }
    for (const CandIdx i : k.candidatesOf(active[a])) {
      choice[a] = i;
      self(self, a + 1);
    }
  };
  rec(rec, 0);
  if (!feasible) return std::nullopt;
  return best;
}

/// Sum over pins of the minimum-interval profit — a lower bound every
/// solver must meet (each assigned interval covers its pin).
inline double minimalProfitBound(const PanelKernel& k) {
  double sum = 0.0;
  for (std::size_t j = 0; j < k.numPins(); ++j) {
    const CandIdx mi = k.minimalIntervalOf(PinIdx{j});
    if (mi.valid()) sum += k.profitOf(mi);
  }
  return sum;
}

}  // namespace cpr::core::testutil
