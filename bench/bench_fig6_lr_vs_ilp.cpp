/// \file bench_fig6_lr_vs_ilp.cpp
/// Reproduces Fig. 6: LR vs ILP on concurrent pin access instances of
/// growing pin count — (a) runtime scalability, (b) objective value.
///
/// Instances are synthesized designs of increasing size (single rows first,
/// then multi-row dies), spanning a handful of pins up to the paper's
/// ~6000-pin x-axis. The LP-based branch & bound (`core::IlpSolver`) plays
/// the commercial ILP solver's role: it proves optimality up to a few
/// hundred pins, grows super-linearly, and runs into its wall-clock cap
/// beyond that — the same truncated curve the paper shows (their ILP is cut
/// off around 10^4 s). LR stays near-linear and lands within a few percent
/// of the ILP objective wherever the ILP has an incumbent. A capped row with
/// no incumbent prints `—` for the ILP objective and the ratio.
///
/// Usage: bench_fig6_lr_vs_ilp [--max-pins n] [--ilp-cap sec] [--report out.json]
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "core/conflict.h"
#include "core/interval_gen.h"
#include "core/solver.h"
#include "db/panel.h"

namespace {

/// A growing family of pin access instances: `scale` roughly doubles the
/// pin count each step.
cpr::db::Design instance(int scale) {
  cpr::gen::GenOptions o;
  o.seed = 7;
  o.minPinTracks = 2;
  o.maxPinTracks = 4;
  o.maxNetSpan = 40;
  o.pinDensity = 0.18;
  if (scale < 6) {  // single row, growing width
    o.width = 30 << scale;
    o.numRows = 1;
    o.maxNetRowSpread = 0;
  } else {  // multi-row dies
    o.width = 960;
    o.numRows = 1 << (scale - 5);
    o.maxNetRowSpread = 1;
  }
  return cpr::gen::generate(o);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cpr;
  long maxPins = 3000;
  double ilpCap = 20.0;
  bench::Harness h("bench_fig6_lr_vs_ilp",
                   "Fig. 6: LR vs ILP runtime and objective over pin count");
  h.parser().option("--max-pins", "n", "stop once an instance reaches this "
                    "many pins (default 3000)", &maxPins);
  h.parser().option("--ilp-cap", "sec", "ILP wall-clock cap per instance "
                    "(default 20)", &ilpCap);
  if (const int rc = h.parse(argc, argv); rc >= 0) return rc;
  obs::Collector report;
  report.note("bench", "fig6_lr_vs_ilp");

  std::printf("Fig. 6: LR vs ILP for different numbers of pins "
              "(ILP wall-clock cap %.0fs per instance)\n", ilpCap);
  std::printf("%6s %9s %9s | %10s %12s | %10s %10s %7s %8s\n", "pins",
              "intervals", "conflicts", "LR cpu(s)", "ILP cpu(s)", "LR obj",
              "ILP obj", "LR/ILP", "ILP");
  bench::hr();

  for (int scale = 0;; ++scale) {
    const db::Design d = instance(scale);
    core::GenOptions g;
    g.maxExtent = 24;
    core::Problem prob =
        core::buildProblem(d, std::vector<db::Panel>(db::extractPanels(d)), g);
    core::detectConflicts(prob);
    const long pins = static_cast<long>(prob.pins.size());
    if (pins == 0) continue;

    const core::PanelKernel kernel =
        core::PanelKernel::compile(std::move(prob));

    const core::LrSolver lrSolver{{}};
    auto t0 = bench::Clock::now();
    const core::Assignment lr = lrSolver.solve(kernel, nullptr, &report);
    const double lrSec = bench::seconds(t0, bench::Clock::now());

    t0 = bench::Clock::now();
    const core::Assignment ilp =
        core::IlpSolver{}.solve(kernel, nullptr, &report,
                                support::Deadline::after(ilpCap));
    const double ilpSec = bench::seconds(t0, bench::Clock::now());
    const bool incumbent = std::any_of(
        ilp.intervalOfPin.begin(), ilp.intervalOfPin.end(),
        [](geom::Index i) { return i != geom::kInvalidIndex; });

    // "—" is three bytes wide in UTF-8 but one column on screen, hence
    // the +2 on its field widths.
    char ilpObj[16] = "—";
    char ratio[16] = "—";
    const int pad = incumbent ? 0 : 2;
    if (incumbent) {
      std::snprintf(ilpObj, sizeof ilpObj, "%.1f", ilp.objective);
      std::snprintf(ratio, sizeof ratio, "%.4f", lr.objective / ilp.objective);
    }
    std::printf("%6ld %9zu %9zu | %10.3f %11.3f%s | %10.1f %*s %*s %8s\n",
                pins, kernel.numIntervals(), kernel.numConflicts(), lrSec,
                ilpSec, ilp.provedOptimal ? " " : "+", lr.objective, 10 + pad,
                ilpObj, 7 + pad, ratio,
                ilp.provedOptimal ? "proven" : "capped");
    std::fflush(stdout);
    if (pins >= maxPins) break;
  }
  std::printf("('+' marks instances where the ILP search hit its wall-clock "
              "cap: its objective is the best incumbent, or — when there is "
              "none. The paper's ILP curve is likewise truncated, at ~1e4 "
              "s)\n");
  h.maybeWriteReport(report);
  return 0;
}
