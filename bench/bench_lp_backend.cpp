/// \file bench_lp_backend.cpp
/// LP engine micro-bench: times the branch & bound over the paper's
/// Formula-(1) panel models with the revised simplex solved cold at every
/// node and warm-started from each parent basis (the default). The headline
/// number is the warm/cold pivot ratio: warm starting must cut total simplex
/// iterations roughly in half or better on these instances.
///
/// Two instance families:
///   1. Formula-(1) models from suite panels (pairwise conflict encoding).
///      Their relaxations solve integrally — interval conflict graphs are
///      perfect — so B&B stops at the root; this section compares cold and
///      warm solves of the root relaxation.
///   2. Conflict knapsacks with even weights and an odd capacity, whose
///      relaxation is fractional at every node: deep search trees where the
///      parent-basis warm start pays off. The headline warm/cold ratio is
///      measured here.
///
/// Usage: bench_lp_backend [--max-pins n] [--cap sec] [--report out.json]
#include <cstdio>
#include <span>

#include "bench_util.h"
#include "core/ilp_builder.h"
#include "core/interval_gen.h"
#include "db/panel.h"
#include "ilp/branch_and_bound.h"
#include "obs/names.h"

namespace {

struct EngineRun {
  cpr::ilp::IlpResult res;
  double sec = 0.0;
};

EngineRun runEngine(const cpr::ilp::Model& m, bool warm, double cap) {
  cpr::ilp::IlpOptions opts;
  opts.lp.warmStart = warm;
  opts.deadline = cpr::support::Deadline::after(cap);
  const auto t0 = cpr::bench::Clock::now();
  EngineRun out;
  out.res = cpr::ilp::solveBinaryIlp(m, opts);
  out.sec = cpr::bench::seconds(t0, cpr::bench::Clock::now());
  return out;
}

/// Even weights against an odd capacity: every node relaxation lands at a
/// half-integral vertex, so the tree dives until enough variables are fixed.
/// Sparse conflict rows keep the instances from being pure knapsacks.
cpr::ilp::Model conflictKnapsack(int n) {
  using namespace cpr::ilp;
  Model m;
  for (int v = 0; v < n; ++v) m.addBinary(1.0 + 0.01 * v);
  std::vector<Term> knap;
  for (Index v = 0; v < n; ++v) knap.push_back({v, 2.0});
  m.addConstraint(std::move(knap), Sense::LessEqual,
                  static_cast<double>(n) - 1.0);
  for (Index v = 0; v + 3 < n; v += 3)
    m.addConstraint({{v, 1.0}, {static_cast<Index>(v + 3), 1.0}},
                    Sense::LessEqual, 1.0);
  return m;
}

void printRow(long size, int rows, const EngineRun& cold,
              const EngineRun& warm) {
  using cpr::ilp::IlpStatus;
  const double ratio = cold.res.lpPivots > 0
      ? static_cast<double>(warm.res.lpPivots) /
            static_cast<double>(cold.res.lpPivots)
      : 1.0;
  std::printf(
      "%5ld %6d | %6ld | %9ld %7.3f%s | %9ld %7.3f%s | %5.2f\n",
      size, rows, warm.res.nodesExplored, cold.res.lpPivots, cold.sec,
      cold.res.status == IlpStatus::Optimal ? " " : "+",
      warm.res.lpPivots, warm.sec,
      warm.res.status == IlpStatus::Optimal ? " " : "+", ratio);
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cpr;
  long maxPinsArg = 60;
  double cap = 10.0;
  bench::Harness h("bench_lp_backend",
                   "LP engine over B&B: cold vs warm-started solves");
  h.parser().option("--max-pins", "n", "stop once the instance reaches this "
                    "many pins (default 60)", &maxPinsArg);
  h.parser().option("--cap", "sec", "wall-clock cap per engine per instance "
                    "(default 10)", &cap);
  if (const int rc = h.parse(argc, argv); rc >= 0) return rc;
  const std::size_t maxPins = static_cast<std::size_t>(maxPinsArg);

  // Same instance family as bench_ablation_constraints: small-competition
  // panels whose Formula-(1) models the B&B solves to optimality.
  gen::GenOptions go;
  go.seed = 3;
  go.width = 220;
  go.numRows = 8;
  go.pinDensity = 0.16;
  go.maxNetSpan = 24;
  go.maxNetRowSpread = 0;
  const db::Design d = gen::generate(go);
  const std::vector<db::Panel> panels = db::extractPanels(d);
  core::GenOptions g;
  g.maxExtent = 10;

  obs::Collector report;
  report.note("bench", "lp_backend");

  std::printf("Revised simplex over branch & bound (cap %.0fs/run)\n",
              cap);
  std::printf("%5s %6s | %6s | %9s %8s | %9s %8s | %6s\n", "pins", "rows",
              "nodes", "coldPiv", "cold s", "warmPiv", "warm s", "w/c");
  bench::hr();

  for (std::size_t count = 1; count <= panels.size(); ++count) {
    const core::PanelKernel kernel = core::buildPanelKernel(
        d, std::span<const db::Panel>(panels.data(), count), g);
    if (kernel.numPins() > maxPins) break;
    if (kernel.numPins() == 0) continue;

    const core::IlpBuild build = core::buildIlpModel(kernel, true);
    const EngineRun cold = runEngine(build.model, false, cap);
    const EngineRun warm = runEngine(build.model, true, cap);

    printRow(static_cast<long>(kernel.numPins()),
             build.model.numConstraints(), cold, warm);
    report.add(obs::names::kIlpPivots, warm.res.lpPivots);
    report.add(obs::names::kIlpWarmSolves, warm.res.lpWarmSolves);
    report.add(obs::names::kIlpColdSolves, warm.res.lpColdSolves);
  }

  std::printf("\nConflict knapsacks (fractional at every node; size = "
              "variables)\n");
  std::printf("%5s %6s | %6s | %9s %8s | %9s %8s | %6s\n", "size", "rows",
              "nodes", "coldPiv", "cold s", "warmPiv", "warm s", "w/c");
  bench::hr();

  long totalCold = 0;
  long totalWarm = 0;
  for (int n = 10; n <= 22; n += 4) {
    const ilp::Model m = conflictKnapsack(n);
    const EngineRun cold = runEngine(m, false, cap);
    const EngineRun warm = runEngine(m, true, cap);
    totalCold += cold.res.lpPivots;
    totalWarm += warm.res.lpPivots;

    printRow(n, m.numConstraints(), cold, warm);
    report.add(obs::names::kIlpPivots, warm.res.lpPivots);
    report.add(obs::names::kIlpWarmSolves, warm.res.lpWarmSolves);
    report.add(obs::names::kIlpColdSolves, warm.res.lpColdSolves);
  }
  bench::hr();
  const double overall = totalCold > 0
      ? static_cast<double>(totalWarm) / static_cast<double>(totalCold)
      : 1.0;
  std::printf("knapsack revised pivots: cold %ld, warm %ld (warm/cold "
              "%.2f)\n", totalCold, totalWarm, overall);
  std::printf("('+' marks runs cut off by the cap)\n");
  h.maybeWriteReport(report);
  return 0;
}
