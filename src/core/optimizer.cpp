#include "core/optimizer.h"

#include <algorithm>
#include <numeric>

#include "db/panel.h"
#include "support/status.h"
#include "support/thread_pool.h"

namespace cpr::core {

namespace {

/// Per-panel outcome, merged into the plan in panel order after the
/// parallel phase. The panel's routes are already written by its worker.
struct PanelOutcome {
  double objective = 0.0;
  obs::Collector stats;
};

/// A panel result is shippable when it is legal: no violated conflict rows,
/// no geometric diff-net overlap (the independent audit, not the solver's
/// own claim), and not everything-unassigned on a panel that has pins.
bool usable(const PanelKernel& k, const Assignment& a) {
  if (a.intervalOfPin.size() != k.numPins()) return false;
  if (a.violations > 0) return false;
  if (k.numPins() > 0) {
    const bool empty = std::all_of(
        a.intervalOfPin.begin(), a.intervalOfPin.end(),
        [](Index i) { return i == geom::kInvalidIndex; });
    if (empty) return false;
  }
  return audit(k, a).overlapsBetweenNets == 0;
}

/// Degradation rung 3 (terminal): one pass over intervals in non-increasing
/// objective weight, selecting an interval iff its covered pins are all
/// unassigned and every conflict row it belongs to is still empty
/// (constraint (1c) holds by construction). Leftover pins then try their
/// minimal interval under the same guard. Deterministic and near-linear;
/// legal by construction, and empty only when no pin has a candidate.
Assignment greedyProfitOrder(const PanelKernel& k) {
  Assignment a;
  a.intervalOfPin.assign(k.numPins(), geom::kInvalidIndex);
  std::vector<CandIdx> order(k.numIntervals());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = CandIdx{i};
  std::sort(order.begin(), order.end(), [&](CandIdx x, CandIdx y) {
    const double wx = k.weightOf(x), wy = k.weightOf(y);
    if (wx != wy) return wx > wy;
    return x < y;
  });
  std::vector<char> rowUsed(k.numConflicts(), 0);
  auto trySelect = [&](CandIdx i) {
    for (PinIdx j : k.pinsOf(i))
      if (a.intervalOfPin[j.idx()] != geom::kInvalidIndex) return;
    for (ConflictIdx m : k.conflictsOf(i))
      if (rowUsed[m.idx()]) return;
    for (PinIdx j : k.pinsOf(i)) a.intervalOfPin[j.idx()] = i.value();
    for (ConflictIdx m : k.conflictsOf(i)) rowUsed[m.idx()] = 1;
  };
  for (CandIdx i : order) trySelect(i);
  for (std::size_t j = 0; j < k.numPins(); ++j) {
    if (a.intervalOfPin[j] != geom::kInvalidIndex) continue;
    const CandIdx mi = k.minimalIntervalOf(PinIdx{j});
    if (mi.valid()) trySelect(mi);
  }
  a.objective = audit(k, a).objective;
  a.violations = 0;
  return a;
}

/// Which rung of the degradation ladder produced the shipped assignment.
enum class Rung { Primary, Lr, Greedy };

/// Solves one panel and writes its pins' routes into `routes`. Every design
/// pin belongs to exactly one panel, so concurrent workers write disjoint
/// entries.
PanelOutcome solvePanel(const db::Design& design, const db::Panel& panel,
                        const OptimizerOptions& opts, const Solver& solver,
                        int panelIndex, PanelScratch& scratch,
                        std::vector<PinRoute>& routes) {
  PanelOutcome out;
  out.stats = obs::Collector(panelIndex);
  obs::Collector* obs = &out.stats;
  // Panel boundary: nothing may escape into the worker thread. `trySolve`
  // isolates solver faults below; this outer net catches instance
  // construction faults and ships an all-unassigned panel.
  auto fail = [&](const char* what) {
    out.stats.add(obs::names::kPaoPanelFailed);
    out.stats.note(obs::names::kPaoPanelErrorNote, what);
    out.stats.add(obs::names::kPaoUnassigned,
                  static_cast<long>(panel.pins.size()));
  };
  try {
    const PanelKernel kernel =
        buildPanelKernel(design, {&panel, 1}, opts.gen, obs);
    obs->add(obs::names::kPaoIntervals,
             static_cast<long>(kernel.numIntervals()));
    obs->add(obs::names::kPaoConflicts,
             static_cast<long>(kernel.numConflicts()));
    obs->add(obs::names::kPaoKernelBytes,
             static_cast<long>(kernel.footprintBytes()));

    // Per-panel budget: a slice of the run deadline, never outliving it.
    const support::Deadline panelDeadline =
        opts.panelBudgetSeconds > 0.0 ? opts.deadline.sub(opts.panelBudgetSeconds)
                                      : opts.deadline;
    // A run deadline that fired before this panel started skips the solver
    // (and the LR rung) entirely — only the fast rungs run, so the tail of a
    // timed-out run finishes in microseconds per panel.
    const bool runExpired = opts.deadline.expired();

    support::Outcome<Assignment> primary{
        support::Status::timedOut("run deadline expired before panel start"),
        Assignment{}};
    if (!runExpired) {
      obs::ScopedTimer t(obs, obs::names::kPaoSolveSpan);
      primary = solver.trySolve(kernel, &scratch, obs, panelDeadline);
    }

    Assignment assignment;
    Rung rung = Rung::Primary;
    if (usable(kernel, primary.value())) {
      assignment = primary.take();
    } else {
      // Walk the degradation ladder. Every rung below the primary solver is
      // cheaper and more reliable than the one above; the terminal greedy
      // rung ships unchecked, as it is legal by construction.
      obs::ScopedTimer t(obs, obs::names::kPaoFallbackSpan);
      obs->add(obs::names::kPaoFallbacks);
      rung = Rung::Greedy;
      if (!runExpired && solver.name() != "lr") {
        support::Outcome<Assignment> lr = LrSolver(opts.solve.lr)
            .trySolve(kernel, &scratch, obs, panelDeadline);
        if (usable(kernel, lr.value())) {
          assignment = lr.take();
          rung = Rung::Lr;
        }
      }
      if (rung == Rung::Greedy) assignment = greedyProfitOrder(kernel);
    }

    switch (rung) {
      case Rung::Primary: obs->add(obs::names::kPaoRungPrimary); break;
      case Rung::Lr: obs->add(obs::names::kPaoRungLr); break;
      case Rung::Greedy: obs->add(obs::names::kPaoRungGreedy); break;
    }
    // Exactly one of failed/degraded per faulted panel: `failed` when the
    // primary solver threw, `degraded` when it timed out, proved the panel
    // infeasible, or returned an unusable/quality-compromised result.
    if (rung != Rung::Primary || !primary.isOk()) {
      if (primary.code() == support::StatusCode::Failed)
        obs->add(obs::names::kPaoPanelFailed);
      else
        obs->add(obs::names::kPaoPanelDegraded);
      obs->note(obs::names::kPaoPanelStatusNote, primary.status().toString());
    }

    long unassigned = 0;
    for (std::size_t j = 0; j < kernel.numPins(); ++j) {
      const Index i = assignment.intervalOfPin[j];
      if (i == geom::kInvalidIndex) {
        ++unassigned;
        continue;
      }
      routes[std::size_t(kernel.designPinOf(PinIdx{j}))] =
          PinRoute{kernel.trackOf(CandIdx{i}), kernel.spanOf(CandIdx{i})};
    }
    if (unassigned > 0) obs->add(obs::names::kPaoUnassigned, unassigned);
    out.objective = assignment.objective;
  } catch (const std::exception& e) {
    fail(e.what());
  } catch (...) {
    fail("non-standard exception");
  }
  return out;
}

}  // namespace

PinAccessPlan optimizePinAccess(const db::Design& design,
                                const OptimizerOptions& opts) {
  PinAccessPlan plan;
  plan.routes.assign(design.pins().size(), PinRoute{});

  std::shared_ptr<const Solver> solver = opts.solver;
  if (!solver) solver = makeSolver(opts.solve);

  const std::vector<db::Panel> panels = db::extractPanels(design);
  std::vector<const db::Panel*> work;
  for (const db::Panel& p : panels) {
    if (!p.pins.empty()) work.push_back(&p);
  }
  std::vector<PanelOutcome> outcomes(work.size());

  const int threads =
      std::clamp(support::ThreadPool::clampThreads(opts.threads), 1,
                 static_cast<int>(std::max<std::size_t>(1, work.size())));
  support::ThreadPool pool(threads);
  // One arena per worker, reused across every panel that worker processes.
  std::vector<PanelScratch> arenas(std::size_t(pool.size()));
  {
    // Scoped so the span is closed before `plan` can be returned (the timer
    // must not outlive its collector's final resting place).
    obs::ScopedTimer total(&plan.stats, obs::names::kPaoTotalSpan);
    // solvePanel catches everything at the panel boundary, so the bodies
    // never throw back through the pool.
    pool.parallelFor(work.size(), [&](int worker, std::size_t k) {
      outcomes[k] = solvePanel(design, *work[k], opts, *solver,
                               static_cast<int>(k),
                               arenas[std::size_t(worker)], plan.routes);
    });
  }
  // Arena high-water mark. A gauge, not a counter: the value depends on how
  // panels landed on workers, so it may vary with the thread count while
  // counters and series must not.
  std::size_t peak = 0;
  for (const PanelScratch& a : arenas) peak = std::max(peak, a.footprintBytes());
  plan.stats.gauge(obs::names::kPaoScratchPeakBytes, static_cast<double>(peak));

  plan.stats.note(obs::names::kPaoSolverNote, solver->name());
  plan.stats.add(obs::names::kPaoPanels, static_cast<long>(work.size()));
  // Merge in panel order: counters and series come out identical for any
  // thread count (only span wall-times differ run to run).
  for (const PanelOutcome& out : outcomes) {
    plan.stats.merge(out.stats);
    plan.objective += out.objective;
  }
  return plan;
}

}  // namespace cpr::core
