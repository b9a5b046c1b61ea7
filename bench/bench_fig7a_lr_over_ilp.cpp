/// \file bench_fig7a_lr_over_ilp.cpp
/// Reproduces Fig. 7(a): routing solution quality with LR-based vs
/// ILP-based pin access optimization — the LR/ILP ratio of Rout., Via# and
/// WL per design (paper: Rout and WL ratios ~1.0, Via# ~+5% for LR).
///
/// The ILP plan solves each panel with the LP-based branch & bound
/// (`Method::Ilp`) under a per-panel wall-clock budget. A panel it proves
/// optimal dominates the LR solution; a panel whose budget fires ships its
/// legal incumbent, which may be worse than LR, or drops down the
/// degradation ladder when it has none. The last column counts the panels
/// proved optimal, so a ratio is read against proven optima only where
/// that count is complete.
///
/// Usage: bench_fig7a_lr_over_ilp [--designs ecc,...] [--per-panel sec]
///        [--threads n] [--report out.json]
#include <cstdio>

#include "bench_util.h"
#include "eval/metrics.h"
#include "obs/names.h"
#include "route/cpr.h"

int main(int argc, char** argv) {
  using namespace cpr;
  double perPanel = 1.0;
  bench::Harness h("bench_fig7a_lr_over_ilp",
                   "Fig. 7(a): routing quality of LR-based over ILP-based "
                   "pin access optimization");
  h.parser().option("--per-panel", "sec", "ILP wall-clock budget per panel, "
                    "0 = none (default 1)", &perPanel);
  if (const int rc = h.parse(argc, argv); rc >= 0) return rc;
  const auto suite = h.suite();
  obs::Collector report;
  report.note("bench", "fig7a_lr_over_ilp");

  std::printf("Fig. 7(a): LR-based over ILP-based pin access optimization "
              "(routing quality ratios; ILP budget %.2fs/panel)\n", perPanel);
  std::printf("%-5s | %9s %9s %9s | %12s %12s | %11s\n", "Ckt", "Rout.",
              "Via#", "WL", "LR obj", "ILP obj", "ILP proven");
  bench::hr();

  for (const gen::SuiteSpec& spec : suite) {
    const db::Design d = gen::makeSuiteDesign(spec);

    route::CprOptions lrOpts;  // defaults: LR
    lrOpts.pinAccess.threads = h.threads();
    const route::CprResult lr = route::routeCpr(d, lrOpts);
    const eval::Metrics mLr = eval::summarize(d, lr.routing);

    route::CprOptions ilpOpts;
    ilpOpts.pinAccess.threads = h.threads();
    ilpOpts.pinAccess.solve.method = core::Method::Ilp;
    ilpOpts.pinAccess.panelBudgetSeconds = perPanel;
    const route::CprResult ilp = route::routeCpr(d, ilpOpts);
    const eval::Metrics mIlp = eval::summarize(d, ilp.routing);

    const long panels = ilp.plan.stats.counter(obs::names::kPaoPanels);
    const long proven =
        panels - ilp.plan.stats.counter(obs::names::kIlpNotProved);
    std::printf("%-5s | %9.4f %9.4f %9.4f | %12.1f %12.1f | %5ld/%-5ld\n",
                spec.name.c_str(), mLr.routability / mIlp.routability,
                static_cast<double>(mLr.vias) / mIlp.vias,
                static_cast<double>(mLr.wirelength) / mIlp.wirelength,
                lr.plan.objective, ilp.plan.objective, proven, panels);
    report.merge(lr.plan.stats);
    report.merge(ilp.plan.stats);
    std::fflush(stdout);
  }
  std::printf("(paper: Rout and WL ratios ~1.0 across designs; LR Via# about "
              "5%% above ILP)\n");
  h.maybeWriteReport(report);
  return 0;
}
