/// \file pin_access_anatomy.cpp
/// Anatomy of concurrent pin access optimization on one panel: prints the
/// candidate intervals the generator enumerates for each pin (Section 3.1),
/// the conflict sets the scanline detects (Section 3.2), and the solutions
/// found by the LR algorithm and the exact ILP (Sections 3.3-3.4), both
/// invoked through the uniform `core::Solver` interface with an
/// `obs::Collector` gathering the work counters.
///
///   $ ./pin_access_anatomy [seed]
#include <cstdio>
#include <cstdlib>

#include "core/conflict.h"
#include "core/interval_gen.h"
#include "core/solver.h"
#include "db/panel.h"
#include "gen/generator.h"
#include "obs/names.h"

int main(int argc, char** argv) {
  using namespace cpr;
  gen::GenOptions o;
  o.seed = argc > 1 ? static_cast<std::uint64_t>(std::atol(argv[1])) : 42;
  o.width = 48;
  o.numRows = 1;
  o.pinDensity = 0.2;
  o.maxNetSpan = 24;
  o.maxNetRowSpread = 0;
  const db::Design d = gen::generate(o);

  core::Problem p = core::buildProblem(d, db::extractPanel(d, 0));
  core::detectConflicts(p);

  std::printf("panel 0 of '%s': %zu pins, %zu candidate intervals, "
              "%zu conflict sets\n\n",
              d.name().c_str(), p.pins.size(), p.intervals.size(),
              p.conflicts.size());

  std::printf("== candidate intervals per pin (Section 3.1) ==\n");
  for (const core::ProblemPin& pin : p.pins) {
    const db::Pin& dp = d.pin(pin.designPin);
    std::printf("pin %-6s (net %-4s, col %d, tracks [%d,%d]): %zu candidates\n",
                dp.name.c_str(), d.net(pin.net).name.c_str(), dp.shape.x.lo,
                dp.shape.y.lo, dp.shape.y.hi, pin.intervals.size());
    for (core::Index i : pin.intervals) {
      const core::AccessInterval& iv =
          p.intervals[static_cast<std::size_t>(i)];
      std::printf("    I%-3d track %d cols [%2d,%2d]%s%s covers %zu pin(s)\n",
                  i, iv.track, iv.span.lo, iv.span.hi,
                  iv.minimal ? " [minimum]" : "",
                  iv.pins.size() > 1 ? " [shared]" : "", iv.pins.size());
    }
  }

  std::printf("\n== conflict sets (Section 3.2, scanline maximal cliques) ==\n");
  for (std::size_t m = 0; m < p.conflicts.size(); ++m) {
    const core::ConflictSet& cs = p.conflicts[m];
    std::printf("C%-3zu track %d, common [%d,%d] (L=%d), members:", m,
                cs.track, cs.common.lo, cs.common.hi, cs.common.span());
    for (core::Index i : cs.intervals) std::printf(" I%d", i);
    std::printf("\n");
  }

  std::printf("\n== solving the weighted interval assignment ==\n");
  obs::Collector stats;
  const core::LrSolver lrSolver{{}};
  const core::Assignment lr = lrSolver.solve(p, &stats);
  std::printf("%-5s (Algorithm 2): objective %.3f after %ld iterations\n",
              lrSolver.name().data(), lr.objective,
              stats.counter(obs::names::kLrIterations));

  ilp::IlpOptions io;
  io.deadline = support::Deadline::after(10.0);
  const core::IlpSolver ilpSolver{io};
  const core::Assignment ilp = ilpSolver.solve(p, &stats);
  std::printf("%-5s (ILP B&B)   : objective %.3f, %ld nodes, %s\n",
              ilpSolver.name().data(), ilp.objective,
              stats.counter(obs::names::kIlpNodes),
              ilp.provedOptimal ? "proven optimal"
                                  : "budget-capped incumbent");
  std::printf("LR achieves %.2f%% of the ILP objective\n",
              100.0 * lr.objective / ilp.objective);

  std::printf("\n== assignments (pin -> interval) ==\n");
  std::printf("%-8s %-22s %-22s\n", "pin", "LR", "ILP");
  for (std::size_t j = 0; j < p.pins.size(); ++j) {
    auto fmt = [&](core::Index i) -> std::string {
      if (i == geom::kInvalidIndex) return "(none)";
      const core::AccessInterval& iv =
          p.intervals[static_cast<std::size_t>(i)];
      char buf[64];
      std::snprintf(buf, sizeof(buf), "t%d [%d,%d]", iv.track, iv.span.lo,
                    iv.span.hi);
      return buf;
    };
    std::printf("%-8s %-22s %-22s\n",
                d.pin(p.pins[j].designPin).name.c_str(),
                fmt(lr.intervalOfPin[j]).c_str(),
                fmt(ilp.intervalOfPin[j]).c_str());
  }
  return 0;
}
