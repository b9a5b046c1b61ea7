/// \file bench_ablation_alpha.cpp
/// Ablation: the subgradient step-size exponent alpha in t_k = L_m / k^alpha
/// (the paper uses 0.95). Sweeps alpha and reports LR convergence behaviour
/// — iterations, remaining pre-repair violations, and objective — over the
/// panels of one design.
///
/// Usage: bench_ablation_alpha [--design name] [--report out.json]
///        (default design: ecc)
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "core/interval_gen.h"
#include "core/solver.h"
#include "db/panel.h"
#include "obs/names.h"

int main(int argc, char** argv) {
  using namespace cpr;
  std::string name = "ecc";
  bench::Harness h("bench_ablation_alpha",
                   "ablation: subgradient step exponent alpha");
  h.parser().option("--design", "name", "suite design to sweep (default ecc)",
                    &name);
  if (const int rc = h.parse(argc, argv); rc >= 0) return rc;
  obs::Collector report;
  report.note("bench", "ablation_alpha");
  const db::Design d = gen::makeSuiteDesign(gen::suiteSpec(name));
  const std::vector<db::Panel> panels = db::extractPanels(d);
  core::GenOptions g;
  g.maxExtent = 32;

  std::printf("Ablation: subgradient step exponent alpha on %s "
              "(paper: 0.95)\n", name.c_str());
  std::printf("%6s | %9s %12s %12s %10s\n", "alpha", "cpu(s)", "iterations",
              "preRepairVio", "objective");
  bench::hr();

  for (const double alpha : {0.5, 0.7, 0.85, 0.95, 1.0, 1.5}) {
    core::LrOptions lr;
    lr.alpha = alpha;
    lr.stallLimit = 0;  // run each panel to UB or convergence
    const core::LrSolver solver{lr};
    long iters = 0;
    long vio = 0;
    double obj = 0.0;
    const auto t0 = bench::Clock::now();
    for (const db::Panel& panel : panels) {
      if (panel.pins.empty()) continue;
      obs::Collector stats;
      const core::Assignment a = solver.solve(
          core::buildPanelKernel(d, {&panel, 1}, g), nullptr, &stats);
      iters += stats.counter(obs::names::kLrIterations);
      // Pre-repair violations: best_violations of the last lr.iter sample
      // (columns are src, iter, violations, best_violations, ...).
      if (auto it = stats.series().find("lr.iter");
          it != stats.series().end() && !it->second.rows.empty())
        vio += static_cast<long>(it->second.rows.back()[3]);
      obj += a.objective;
      report.merge(stats);
    }
    std::printf("%6.2f | %9.3f %12ld %12ld %10.1f\n", alpha,
                bench::seconds(t0, bench::Clock::now()), iters, vio, obj);
    std::fflush(stdout);
  }
  h.maybeWriteReport(report);
  return 0;
}
