/// \file bench_ablation_constraints.cpp
/// Ablation: conflict-set (clique) constraints vs the naive pairwise
/// encoding. The paper's Section 3.3 argues the pairwise form is quadratic
/// in the interval count while the linear conflict-set form keeps the ILP
/// tractable; this bench counts rows and times the LP-based branch &
/// bound on both encodings over growing instances.
///
/// Usage: bench_ablation_constraints [--max-pins n] [--cap sec]
#include <cstdio>
#include <span>

#include "bench_util.h"
#include "core/ilp_builder.h"
#include "core/interval_gen.h"
#include "db/panel.h"
#include "ilp/branch_and_bound.h"

int main(int argc, char** argv) {
  using namespace cpr;
  long maxPinsArg = 60;
  double cap = 10.0;
  bench::Harness h("bench_ablation_constraints",
                   "ablation: clique vs pairwise conflict rows");
  h.parser().option("--max-pins", "n", "stop once the instance reaches this "
                    "many pins (default 60)", &maxPinsArg);
  h.parser().option("--cap", "sec", "LP branch & bound wall-clock cap "
                    "(default 10)", &cap);
  if (const int rc = h.parse(argc, argv); rc >= 0) return rc;
  const std::size_t maxPins = static_cast<std::size_t>(maxPinsArg);

  // Small, low-competition instances keep the LP B&B in range.
  gen::GenOptions go;
  go.seed = 3;
  go.width = 220;
  go.numRows = 8;
  go.pinDensity = 0.08;
  go.maxNetSpan = 24;
  go.maxNetRowSpread = 0;
  const db::Design d = gen::generate(go);
  const std::vector<db::Panel> panels = db::extractPanels(d);
  core::GenOptions g;
  g.maxExtent = 10;

  std::printf("Ablation: clique vs pairwise conflict constraints "
              "(LP branch & bound, cap %.0fs)\n", cap);
  std::printf("%5s %9s | %10s %10s | %12s %12s\n", "pins", "intervals",
              "cliqueRows", "pairRows", "clique cpu", "pair cpu");
  bench::hr();

  for (std::size_t count = 1; count <= panels.size(); ++count) {
    const core::PanelKernel kernel = core::buildPanelKernel(
        d, std::span<const db::Panel>(panels.data(), count), g);
    if (kernel.numPins() > maxPins) break;
    if (kernel.numPins() == 0) continue;

    const core::IlpBuild clique = core::buildIlpModel(kernel, false);
    const core::IlpBuild pair = core::buildIlpModel(kernel, true);

    ilp::IlpOptions opts;

    auto t0 = bench::Clock::now();
    opts.deadline = support::Deadline::after(cap);
    const ilp::IlpResult a = ilp::solveBinaryIlp(clique.model, opts);
    const double cliqueSec = bench::seconds(t0, bench::Clock::now());
    t0 = bench::Clock::now();
    opts.deadline = support::Deadline::after(cap);
    const ilp::IlpResult b = ilp::solveBinaryIlp(pair.model, opts);
    const double pairSec = bench::seconds(t0, bench::Clock::now());

    std::printf("%5zu %9zu | %10d %10d | %10.3f%s %10.3f%s\n",
                kernel.numPins(), kernel.numIntervals(),
                clique.model.numConstraints(), pair.model.numConstraints(),
                cliqueSec, a.status == ilp::IlpStatus::Optimal ? " " : "+",
                pairSec, b.status == ilp::IlpStatus::Optimal ? " " : "+");
    std::fflush(stdout);
  }
  std::printf("('+' marks runs cut off by the cap)\n");
  return 0;
}
