#include "core/lr_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/names.h"
#include "support/contracts.h"

namespace cpr::core {

namespace {

/// `LrScratch::dirtyFlag` states: a dirty candidate waits for its re-key; a
/// stale one's listed key is dropped by the next splice.
constexpr char kDirty = 1;
constexpr char kStale = 2;

/// Algorithm 1, maxGains selection over a pre-sorted key order: select an
/// interval when every covered pin is still free; leftover pins fall back to
/// their minimum interval (always selectable — Theorem 1). Writes the
/// selected interval ids into `sel` and the per-pin assignment into
/// `assign` (both fully reinitialized).
void runMaxGainsOrdered(const PanelKernel& k,
                        const std::vector<LrPackedKey>& keys,
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
  for (const LrPackedKey& key : keys) {
    if (unassigned == 0) break;  // every pin holds an interval already
    const CandIdx i = key.idx();
    const std::span<const PinIdx> pins = k.pinsOf(i);
    const bool allFree = std::all_of(pins.begin(), pins.end(), [&](PinIdx q) {
      return !assign[q.idx()].valid();
    });
    if (allFree && !pins.empty()) takeInterval(i);
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

/// Pin `j`'s first single-pin candidate in key order under `penalties`
/// (invalid when every candidate of `j` is shared).
CandIdx bestSingleOf(const PanelKernel& k,
                     const std::vector<double>& penalties, PinIdx j) {
  CandIdx best = CandIdx::invalid();
  LrPackedKey bestKey;
  for (const CandIdx i : k.candidatesOf(j)) {
    if (k.degreeOf(i) != 1) continue;
    const LrPackedKey key =
        packLrKey({k.weightOf(i) - penalties[i.idx()], 1, i});
    if (!best.valid() || key < bestKey) {
      best = i;
      bestKey = key;
    }
  }
  return best;
}

/// True when every assigned interval covers the pin it is assigned to —
/// what lets conflict removal walk `pinsOf(i)` instead of every pin.
bool assignedWithinCover(const PanelKernel& k,
                         const std::vector<CandIdx>& assign) {
  for (std::size_t j = 0; j < assign.size(); ++j) {
    if (!assign[j].valid()) continue;
    const std::span<const PinIdx> pins = k.pinsOf(assign[j]);
    if (std::find(pins.begin(), pins.end(), PinIdx{j}) == pins.end())
      return false;
  }
  return true;
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
         bytes(events) + bytes(spliceBuf) + bytes(additions) +
         bytes(dirtyFlag) + bytes(dirtyList) +
         bytes(bestSingle) + bytes(bestGain) + bytes(curSel) +
         bytes(curAssign) + bytes(bestSel) + bytes(bestAssign) +
         bytes(selFlag) + bytes(usage) + bytes(freedWithin) + bytes(members);
}

std::vector<Index> maxGains(const PanelKernel& k,
                            const std::vector<double>& gains) {
  std::vector<LrPackedKey> keys(k.numIntervals());
  for (std::size_t i = 0; i < keys.size(); ++i)
    keys[i] = packLrKey({gains[i], k.degreeOf(CandIdx{i}), CandIdx{i}});
  std::sort(keys.begin(), keys.end());
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

  auto gainOf = [&](CandIdx i) { return k.weightOf(i) - s.penalties[i.idx()]; };
  auto keyOf = [&](CandIdx i) {
    return packLrKey({gainOf(i), k.degreeOf(i), i});
  };

  // maxGains event list: each pin's best single-pin candidate plus every
  // shared candidate, in key order. A single-pin candidate behind its pin's
  // best can never be taken (the best already took or found the pin held),
  // so walking the events selects exactly what walking every candidate
  // would, in the same order.
  std::size_t nShared = 0;
  for (std::size_t i = 0; i < n; ++i)
    nShared += k.degreeOf(CandIdx{i}) >= 2 ? 1 : 0;
  s.events.clear();
  s.events.reserve(nPins + nShared);
  s.bestSingle.assign(nPins, CandIdx::invalid());
  s.bestGain.assign(nPins, 0.0);
  for (std::size_t j = 0; j < nPins; ++j) {
    const CandIdx b = bestSingleOf(k, s.penalties, PinIdx{j});
    if (!b.valid()) continue;
    s.bestSingle[j] = b;
    s.bestGain[j] = gainOf(b);
    s.events.push_back(keyOf(b));
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (k.degreeOf(CandIdx{i}) >= 2) s.events.push_back(keyOf(CandIdx{i}));
  }
  std::sort(s.events.begin(), s.events.end());
  s.dirtyFlag.assign(n, 0);
  s.dirtyList.clear();
  s.dirtyList.reserve(n);
  s.additions.clear();
  s.additions.reserve(s.events.size());

  auto markDirty = [&](CandIdx i) {
    CPR_DCHECK(i.idx() < s.dirtyFlag.size());
    if (!s.dirtyFlag[i.idx()]) {
      s.dirtyFlag[i.idx()] = kDirty;
      s.dirtyList.push_back(i);
    }
  };

  // Re-keys the dirty events and splices them back in.
  auto refreshEvents = [&] {
    if (s.dirtyList.empty()) return;
    for (const CandIdx i : s.dirtyList) {
      char& flag = s.dirtyFlag[i.idx()];
      const Index degree = k.degreeOf(i);
      if (degree >= 2) {
        flag = kStale;
        s.additions.push_back(keyOf(i));
        continue;
      }
      flag = 0;
      if (degree != 1) continue;  // covers no pin: never taken, never listed
      // Penalties only rise, so a single behind its pin's best stays behind
      // it; the best changes only when the best itself got dirtier, and then
      // any single of the pin may lead.
      const PinIdx p = k.pinsOf(i)[0];
      if (i != s.bestSingle[p.idx()] || gainOf(i) == s.bestGain[p.idx()])
        continue;
      const CandIdx next = bestSingleOf(k, s.penalties, p);
      flag = kStale;
      s.additions.push_back(keyOf(next));
      s.bestSingle[p.idx()] = next;
      s.bestGain[p.idx()] = gainOf(next);
    }
    s.dirtyList.clear();
    // Splice: one pass over the listed order drops the stale entries (each
    // candidate is listed at most once) and merges the sorted fresh keys in.
    std::sort(s.additions.begin(), s.additions.end());
    s.spliceBuf.clear();
    s.spliceBuf.reserve(s.events.size());
    auto fresh = s.additions.begin();
    for (const LrPackedKey& key : s.events) {
      char& flag = s.dirtyFlag[key.idx().idx()];
      if (flag) {  // kStale: its fresh key is among the additions
        flag = 0;
        continue;
      }
      for (; fresh != s.additions.end() && *fresh < key; ++fresh)
        s.spliceBuf.push_back(*fresh);
      s.spliceBuf.push_back(key);
    }
    s.spliceBuf.insert(s.spliceBuf.end(), fresh, s.additions.end());
    // Every listed entry was re-keyed in place: the list keeps its length.
    CPR_DCHECK(s.spliceBuf.size() == s.events.size());
    s.events.swap(s.spliceBuf);
    s.additions.clear();
  };

  for (int it = 1; it <= kLrMaxIterations; ++it) {
    iterations = it;
    refreshEvents();
    runMaxGainsOrdered(k, s.events, s.curSel, s.curAssign);

    // Per-set selected counts, touching only sets of selected intervals.
    s.touched.clear();
    for (const CandIdx i : s.curSel) {
      for (const ConflictIdx m : k.conflictsOf(i)) {
        if (s.csCount[m.idx()]++ == 0) s.touched.push_back(m);
      }
    }

    // Algorithm 1, penalize: subgradient multiplier update (Eq. 3) with
    // step t_k = L_m / k^alpha, raising λm of every violated set only.
    int vio = 0;
    const double step = 1.0 / std::pow(static_cast<double>(it), opts.alpha);
    auto applyDelta = [&](ConflictIdx m, double delta) {
      CPR_DCHECK(m.idx() < s.lambda.size());
      // The event list relies on it: no candidate's key ever rises.
      CPR_DCHECK(delta >= 0.0);
      s.lambda[m.idx()] += delta;
      lambdaL1 += delta;  // multipliers stay >= 0, so Σλ is the L1 norm
      for (const CandIdx i : k.membersOf(m)) {
        markDirty(i);
        s.penalties[i.idx()] += delta;
      }
    };
    for (const ConflictIdx m : s.touched) {
      const int count = s.csCount[m.idx()];
      if (count <= 1) continue;
      ++vio;
      const double tk = step * static_cast<double>(k.conflictSpanOf(m));
      applyDelta(m, tk * static_cast<double>(count - 1));
    }
    for (const ConflictIdx m : s.touched) s.csCount[m.idx()] = 0;

    const int newBest = std::min(bestVio, vio);
    if (obs) {
      // O(pins) per iteration: the optimizer hands every panel solve its
      // collector, so this sum runs on every solve, not only when tracing.
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
      // Every assignment stays within the pins its interval covers: maxGains
      // takes an interval for its own pins, the fallback and `shrink` hand
      // a pin its own minimum interval, and re-expansion re-points only
      // `pinsOf(i)`. Conflict removal below relies on it.
      CPR_DCHECK(assignedWithinCover(k, s.bestAssign));
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
      for (const PinIdx q : k.pinsOf(i)) {
        if (s.bestAssign[q.idx()] == i && k.minimalIntervalOf(q) != i)
          return true;
      }
      return false;
    };
    auto shrink = [&](CandIdx i) {
      s.selFlag[i.idx()] = 0;
      for (const PinIdx q : k.pinsOf(i)) {
        if (s.bestAssign[q.idx()] != i) continue;
        const CandIdx mi = k.minimalIntervalOf(q);
        CPR_DCHECK(mi.valid());
        s.bestAssign[q.idx()] = mi;
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
            const std::span<const PinIdx> pins = k.pinsOf(i);
            const bool assigned =
                std::any_of(pins.begin(), pins.end(), [&](PinIdx q) {
                  return s.bestAssign[q.idx()] == i;
                });
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
