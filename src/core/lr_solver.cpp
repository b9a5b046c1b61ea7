#include "core/lr_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/names.h"
#include "support/contracts.h"

namespace cpr::core {

namespace {

bool keyLess(const LrSortKey& a, const LrSortKey& b) {
  if (a.gain != b.gain) return a.gain > b.gain;
  if (a.degree != b.degree) return a.degree > b.degree;
  return a.idx < b.idx;
}

/// Algorithm 1, maxGains selection over a pre-sorted key order: select an
/// interval when every covered pin is still free; leftover pins fall back to
/// their minimum interval (always selectable — Theorem 1). Writes the
/// selected interval ids into `sel` and the per-pin assignment into
/// `assign` (both fully reinitialized).
void runMaxGainsOrdered(const PanelKernel& k,
                        const std::vector<LrSortKey>& keys,
                        std::vector<CandIdx>& sel,
                        std::vector<CandIdx>& assign) {
  sel.clear();
  // Every greedy selection assigns at least one previously free pin and the
  // fallback pushes once per still-free pin, so |sel| <= numPins; warm
  // scratches make this reserve a no-op.
  sel.reserve(k.numPins());
  assign.assign(k.numPins(), CandIdx::invalid());
  std::size_t unassigned = k.numPins();
  // Named to dodge POSIX select(): the blocking-call manifest matches on
  // spelling alone, and this lambda is anything but a socket wait.
  auto takeInterval = [&](CandIdx i) {
    sel.push_back(i);
    for (const PinIdx q : k.pinsOf(i)) {
      CPR_DCHECK(q.idx() < assign.size());
      if (!assign[q.idx()].valid()) {
        assign[q.idx()] = i;
        --unassigned;
      }
    }
  };
  for (const LrSortKey& key : keys) {
    if (unassigned == 0) break;  // every pin holds an interval already
    const std::span<const PinIdx> pins = k.pinsOf(key.idx);
    const bool allFree = std::all_of(pins.begin(), pins.end(), [&](PinIdx q) {
      return !assign[q.idx()].valid();
    });
    if (allFree && !pins.empty()) takeInterval(key.idx);
  }
  // Equality constraints (1b): every pin must hold exactly one interval.
  for (std::size_t j = 0; j < k.numPins(); ++j) {
    if (assign[j].valid()) continue;
    const CandIdx mi = k.minimalIntervalOf(PinIdx{j});
    if (!mi.valid()) continue;  // inaccessible pin
    sel.push_back(mi);
    assign[j] = mi;
  }
}

int selectedCount(const PanelKernel& k, ConflictIdx m,
                  const std::vector<char>& selFlag) {
  int count = 0;
  for (const CandIdx i : k.membersOf(m)) count += selFlag[i.idx()] ? 1 : 0;
  return count;
}

}  // namespace

std::size_t LrScratch::footprintBytes() const {
  auto bytes = [](const auto& v) { return v.capacity() * sizeof(v[0]); };
  return bytes(penalties) + bytes(lambda) + bytes(csCount) + bytes(touched) +
         bytes(keys) + bytes(dirtyKeys) + bytes(mergeBuf) + bytes(dirtyFlag) +
         bytes(dirtyList) + bytes(curSel) + bytes(curAssign) + bytes(bestSel) +
         bytes(bestAssign) + bytes(selFlag) + bytes(usage) +
         bytes(freedWithin) + bytes(members);
}

std::vector<Index> maxGains(const PanelKernel& k,
                            const std::vector<double>& gains) {
  std::vector<LrSortKey> keys(k.numIntervals());
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = LrSortKey{gains[i], k.degreeOf(CandIdx{i}), CandIdx{i}};
  std::sort(keys.begin(), keys.end(), keyLess);
  std::vector<CandIdx> sel, assign;
  runMaxGainsOrdered(k, keys, sel, assign);
  std::vector<Index> out;
  out.reserve(sel.size());
  for (const CandIdx i : sel) out.push_back(i.value());
  return out;
}

Assignment solveLr(const PanelKernel& k, const LrOptions& opts,
                   obs::Collector* obs, LrScratch* scratch,
                   support::Deadline deadline) {
  LrScratch local;
  LrScratch& s = scratch ? *scratch : local;
  const std::size_t n = k.numIntervals();
  const std::size_t nPins = k.numPins();
  const std::size_t nCs = k.numConflicts();

  s.penalties.assign(n, 0.0);
  s.lambda.assign(nCs, 0.0);
  double lambdaL1 = 0.0;  ///< Σ λ_m, maintained incrementally for the trace

  int bestVio = std::numeric_limits<int>::max();
  bool haveBest = false;
  int stall = 0;
  int iterations = 0;

  s.csCount.assign(nCs, 0);
  s.touched.clear();
  s.touched.reserve(nCs);

  // Sorted key order, maintained incrementally: only intervals whose
  // penalties changed are re-keyed and merged back (the full per-iteration
  // sort dominates LR runtime on large panels otherwise).
  s.keys.reserve(n);
  s.keys.resize(n);
  for (std::size_t i = 0; i < n; ++i)
    s.keys[i] = LrSortKey{k.weightOf(CandIdx{i}), k.degreeOf(CandIdx{i}),
                          CandIdx{i}};
  std::sort(s.keys.begin(), s.keys.end(), keyLess);
  s.dirtyFlag.assign(n, 0);
  s.dirtyList.clear();
  s.dirtyList.reserve(n);
  s.dirtyKeys.reserve(n);

  auto markDirty = [&](CandIdx i) {
    CPR_DCHECK(i.idx() < s.dirtyFlag.size());
    if (!s.dirtyFlag[i.idx()]) {
      s.dirtyFlag[i.idx()] = 1;
      s.dirtyList.push_back(i);
    }
  };

  auto refreshKeys = [&] {
    if (s.dirtyList.empty()) return;
    if (s.dirtyList.size() > n / 3) {
      for (std::size_t i = 0; i < n; ++i)
        s.keys[i] = LrSortKey{k.weightOf(CandIdx{i}) - s.penalties[i],
                              k.degreeOf(CandIdx{i}), CandIdx{i}};
      std::sort(s.keys.begin(), s.keys.end(), keyLess);
    } else {
      s.dirtyKeys.clear();
      for (const CandIdx i : s.dirtyList) {
        s.dirtyKeys.push_back(LrSortKey{k.weightOf(i) - s.penalties[i.idx()],
                                        k.degreeOf(i), i});
      }
      std::sort(s.dirtyKeys.begin(), s.dirtyKeys.end(), keyLess);
      s.mergeBuf.clear();
      s.mergeBuf.reserve(n);
      // Drop stale entries, then merge the re-keyed ones back in.
      auto clean = [&](const LrSortKey& key) {
        return !s.dirtyFlag[key.idx.idx()];
      };
      std::size_t a = 0;
      std::size_t b = 0;
      while (a < s.keys.size() || b < s.dirtyKeys.size()) {
        while (a < s.keys.size() && !clean(s.keys[a])) ++a;
        if (a == s.keys.size()) {
          while (b < s.dirtyKeys.size()) s.mergeBuf.push_back(s.dirtyKeys[b++]);
          break;
        }
        if (b == s.dirtyKeys.size() || keyLess(s.keys[a], s.dirtyKeys[b])) {
          s.mergeBuf.push_back(s.keys[a++]);
        } else {
          s.mergeBuf.push_back(s.dirtyKeys[b++]);
        }
      }
      // The merge must be a permutation: same key count in as out, or the
      // incremental order has dropped/duplicated an interval.
      CPR_DCHECK(s.mergeBuf.size() == s.keys.size());
      s.keys.swap(s.mergeBuf);
    }
    for (const CandIdx i : s.dirtyList) s.dirtyFlag[i.idx()] = 0;
    s.dirtyList.clear();
  };

  for (int it = 1; it <= opts.maxIterations; ++it) {
    iterations = it;
    refreshKeys();
    runMaxGainsOrdered(k, s.keys, s.curSel, s.curAssign);

    // Per-set selected counts, touching only sets of selected intervals.
    s.touched.clear();
    for (const CandIdx i : s.curSel) {
      for (const ConflictIdx m : k.conflictsOf(i)) {
        if (s.csCount[m.idx()]++ == 0) s.touched.push_back(m);
      }
    }

    // Algorithm 1, penalize: subgradient multiplier update (Eq. 3) with
    // step t_k = L_m / k^alpha.
    int vio = 0;
    const double step = 1.0 / std::pow(static_cast<double>(it), opts.alpha);
    auto applyDelta = [&](ConflictIdx m, double delta) {
      CPR_DCHECK(m.idx() < s.lambda.size());
      s.lambda[m.idx()] += delta;
      lambdaL1 += delta;  // multipliers stay >= 0, so Σλ is the L1 norm
      for (const CandIdx i : k.membersOf(m)) {
        s.penalties[i.idx()] += delta;
        markDirty(i);
      }
    };
    for (const ConflictIdx m : s.touched) {
      const int count = s.csCount[m.idx()];
      if (count <= 1) continue;
      ++vio;
      const double tk = step * static_cast<double>(k.conflictSpanOf(m));
      applyDelta(m, tk * static_cast<double>(count - 1));
    }
    if (opts.bidirectionalMultipliers) {
      // Full subgradient: multipliers of unselected sets decay toward 0.
      for (std::size_t m = 0; m < nCs; ++m) {
        if (s.csCount[m] != 0 || s.lambda[m] == 0.0) continue;
        const double tk =
            step * static_cast<double>(k.conflictSpanOf(ConflictIdx{m}));
        applyDelta(ConflictIdx{m},
                   std::max(0.0, s.lambda[m] - tk) - s.lambda[m]);
      }
    }
    for (const ConflictIdx m : s.touched) s.csCount[m.idx()] = 0;

    const int newBest = std::min(bestVio, vio);
    if (obs) {
      // The extra O(pins) objective sum only runs when tracing is on.
      double curObjective = 0.0;
      for (std::size_t j = 0; j < nPins; ++j) {
        const CandIdx i = s.curAssign[j];
        if (i.valid()) curObjective += k.profitOf(i);
      }
      obs->row(obs::names::kLrIterSeries,
               {"iter", "violations", "best_violations", "lambda_norm",
                "objective"},
               {static_cast<double>(it), static_cast<double>(vio),
                static_cast<double>(newBest), lambdaL1, curObjective});
    }

    if (vio < bestVio) {
      bestVio = vio;
      s.bestSel.swap(s.curSel);
      s.bestAssign.swap(s.curAssign);
      haveBest = true;
      stall = 0;
    } else if (opts.stallLimit > 0 && ++stall >= opts.stallLimit) {
      break;
    }
    if (bestVio == 0) break;
    // Deadline check last, so every solve completes at least one iteration
    // and the repair below always has a best-so-far selection to work on.
    if (deadline.expired()) {
      obs::add(obs, obs::names::kLrTimeout);
      break;
    }
  }
  obs::add(obs, obs::names::kLrIterations, iterations);

  if (!haveBest) {
    s.bestSel.clear();
    s.bestAssign.assign(nPins, CandIdx::invalid());
  }

  // Greedy conflict removal (Algorithm 2, line 11): shrink conflicting
  // selections to minimum intervals until no conflict set holds more than
  // one selected interval.
  s.selFlag.assign(n, 0);
  for (const CandIdx i : s.bestSel) s.selFlag[i.idx()] = 1;
  if (!opts.skipConflictRemoval && bestVio > 0) {
    // An interval is shrinkable when some pin assigned to it has a smaller
    // minimum interval to retreat to. Two unshrinkable members can never
    // share a conflict set when pins respect the spacing-guard separation,
    // so shrinking all shrinkable members — sparing the most valuable one
    // only when every member is shrinkable — terminates with at most one
    // selected interval per conflict set.
    auto shrinkable = [&](CandIdx i) {
      for (std::size_t q = 0; q < nPins; ++q) {
        if (s.bestAssign[q] == i && k.minimalIntervalOf(PinIdx{q}) != i)
          return true;
      }
      return false;
    };
    auto shrink = [&](CandIdx i) {
      s.selFlag[i.idx()] = 0;
      for (std::size_t q = 0; q < nPins; ++q) {
        if (s.bestAssign[q] != i) continue;
        const CandIdx mi = k.minimalIntervalOf(PinIdx{q});
        CPR_DCHECK(mi.valid());
        s.bestAssign[q] = mi;
        s.selFlag[mi.idx()] = 1;
      }
    };
    s.members.reserve(n);  // one conflict set's selected members at a time
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t m = 0; m < nCs; ++m) {
        if (selectedCount(k, ConflictIdx{m}, s.selFlag) <= 1) continue;
        s.members.clear();
        bool anyUnshrinkable = false;
        for (const CandIdx i : k.membersOf(ConflictIdx{m})) {
          if (!s.selFlag[i.idx()]) continue;
          s.members.push_back(i);
          anyUnshrinkable |= !shrinkable(i);
        }
        CandIdx keep = CandIdx::invalid();
        if (!anyUnshrinkable) {
          for (const CandIdx i : s.members) {
            if (!keep.valid() || k.weightOf(i) > k.weightOf(keep)) keep = i;
          }
        }
        for (const CandIdx i : s.members) {
          if (i == keep || !shrinkable(i)) continue;
          shrink(i);
          changed = true;
        }
        // Ghost members (selected but assigned to no pin) just deselect.
        for (const CandIdx i : s.members) {
          if (i != keep && !shrinkable(i)) {
            bool assigned = false;
            for (std::size_t q = 0; q < nPins && !assigned; ++q)
              assigned = s.bestAssign[q] == i;
            if (!assigned && s.selFlag[i.idx()]) {
              s.selFlag[i.idx()] = 0;
              changed = true;
            }
          }
        }
      }
      if (changed) obs::add(obs, obs::names::kLrRemovalRounds);
    }
  }

  // Greedy re-expansion: conflict removal trades interval length for
  // legality; this recovers length by upgrading each pin to its most
  // profitable candidate that keeps every conflict set at <= 1 selected
  // interval. Selecting interval i re-points all pins i covers, so shared
  // (intra-panel) intervals can be joined or formed during refinement.
  if (opts.reexpandRounds > 0 && nPins > 0) {
    s.usage.assign(n, 0);
    for (std::size_t j = 0; j < nPins; ++j) {
      const CandIdx cur = s.bestAssign[j];
      if (cur.valid()) ++s.usage[cur.idx()];
    }
    s.freedWithin.assign(n, 0);
    for (int round = 0; round < opts.reexpandRounds; ++round) {
      bool improved = false;
      for (std::size_t j = 0; j < nPins; ++j) {
        const CandIdx cur = s.bestAssign[j];
        if (!cur.valid()) continue;
        for (const CandIdx i : k.sortedCandidatesOf(PinIdx{j})) {
          if (k.profitOf(i) <= k.profitOf(cur)) break;
          if (i == cur) continue;
          const std::span<const PinIdx> covered = k.pinsOf(i);
          // Total objective delta over every pin the candidate re-points.
          double gain = 0.0;
          bool feasiblePins = true;
          for (const PinIdx q : covered) {
            const CandIdx old = s.bestAssign[q.idx()];
            if (!old.valid()) {
              feasiblePins = false;  // inaccessible pin cannot be re-pointed
              break;
            }
            gain += k.profitOf(i) - k.profitOf(old);
            ++s.freedWithin[old.idx()];
          }
          bool ok = feasiblePins && gain > 1e-12;
          if (ok) {
            // Equality rows (1b): an interval that stays selected must not
            // cover a re-pointed pin, so every displaced interval has to be
            // fully freed by this move.
            for (const PinIdx q : covered) {
              const CandIdx old = s.bestAssign[q.idx()];
              if (old != i && s.freedWithin[old.idx()] < s.usage[old.idx()]) {
                ok = false;
                break;
              }
            }
          }
          if (ok) {
            // Conflict sets of the candidate must hold no interval that
            // stays selected after the move.
            for (const ConflictIdx m : k.conflictsOf(i)) {
              for (const CandIdx sel : k.membersOf(m)) {
                if (sel == i || s.usage[sel.idx()] == 0) continue;
                if (s.freedWithin[sel.idx()] < s.usage[sel.idx()]) {
                  ok = false;
                  break;
                }
              }
              if (!ok) break;
            }
          }
          for (const PinIdx q : covered) {
            const CandIdx old = s.bestAssign[q.idx()];
            if (old.valid()) s.freedWithin[old.idx()] = 0;
          }
          if (!ok) continue;
          for (const PinIdx q : covered) {
            CPR_DCHECK(s.bestAssign[q.idx()].valid());
            --s.usage[s.bestAssign[q.idx()].idx()];
            s.bestAssign[q.idx()] = i;
            ++s.usage[i.idx()];
          }
          improved = true;
          obs::add(obs, obs::names::kLrReexpandUpgrades);
          break;  // next pin
        }
      }
      if (!improved) break;
    }
  }

  Assignment out;
  out.intervalOfPin.assign(nPins, geom::kInvalidIndex);
  for (std::size_t j = 0; j < nPins && j < s.bestAssign.size(); ++j)
    out.intervalOfPin[j] = s.bestAssign[j].value();
  for (std::size_t j = 0; j < nPins; ++j) {
    const Index i = out.intervalOfPin[j];
    if (i != geom::kInvalidIndex) out.objective += k.profitOf(CandIdx{i});
  }
  // Final violation count over the (possibly repaired) selection.
  s.selFlag.assign(n, 0);
  for (const Index i : out.intervalOfPin)
    if (i != geom::kInvalidIndex) s.selFlag[CandIdx{i}.idx()] = 1;
  for (std::size_t m = 0; m < nCs; ++m) {
    if (selectedCount(k, ConflictIdx{m}, s.selFlag) > 1) ++out.violations;
  }
  return out;
}

}  // namespace cpr::core
