/// \file pin_access_anatomy.cpp
/// Anatomy of concurrent pin access optimization on one panel: prints the
/// candidate intervals the generator enumerates for each pin (Section 3.1),
/// the conflict sets the scanline detects (Section 3.2), and the solutions
/// found by the LR algorithm and the exact ILP (Sections 3.3-3.4), both
/// invoked through the uniform `core::Solver` interface with an
/// `obs::Collector` gathering the work counters.
///
///   $ ./pin_access_anatomy [seed]
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>

#include "core/interval_gen.h"
#include "core/solver.h"
#include "db/panel.h"
#include "gen/generator.h"
#include "obs/names.h"

int main(int argc, char** argv) {
  using namespace cpr;
  gen::GenOptions o;
  o.seed = 42;
  if (argc > 1) {
    const char* end = argv[1] + std::strlen(argv[1]);
    const auto [ptr, ec] = std::from_chars(argv[1], end, o.seed);
    if (argc > 2 || ec != std::errc() || ptr != end) {
      std::fprintf(stderr, "usage: %s [seed]  (seed: a non-negative integer)\n",
                   argv[0]);
      return 2;
    }
  }
  o.width = 48;
  o.numRows = 1;
  o.pinDensity = 0.2;
  o.maxNetSpan = 24;
  o.maxNetRowSpread = 0;
  const db::Design d = gen::generate(o);

  const db::Panel panel = db::extractPanel(d, 0);
  const core::PanelKernel k = core::buildPanelKernel(d, {&panel, 1});

  std::printf("panel 0 of '%s': %zu pins, %zu candidate intervals, "
              "%zu conflict sets\n\n",
              d.name().c_str(), k.numPins(), k.numIntervals(),
              k.numConflicts());

  std::printf("== candidate intervals per pin (Section 3.1) ==\n");
  for (std::size_t j = 0; j < k.numPins(); ++j) {
    const db::Pin& dp = d.pin(k.designPinOf(core::PinIdx{j}));
    const std::span<const core::CandIdx> cand =
        k.candidatesOf(core::PinIdx{j});
    std::printf("pin %-6s (net %-4s, col %d, tracks [%d,%d]): %zu candidates\n",
                dp.name.c_str(), d.net(dp.net).name.c_str(), dp.shape.x.lo,
                dp.shape.y.lo, dp.shape.y.hi, cand.size());
    for (const core::CandIdx i : cand) {
      std::printf("    I%-3d track %d cols [%2d,%2d]%s%s covers %d pin(s)\n",
                  i.value(), k.trackOf(i), k.spanOf(i).lo, k.spanOf(i).hi,
                  k.isMinimal(i) ? " [minimum]" : "",
                  k.degreeOf(i) > 1 ? " [shared]" : "", k.degreeOf(i));
    }
  }

  std::printf("\n== conflict sets (Section 3.2, scanline maximal cliques) ==\n");
  for (std::size_t m = 0; m < k.numConflicts(); ++m) {
    const core::ConflictIdx c{m};
    std::printf("C%-3zu track %d, common span L=%d, members:", m,
                k.conflictTrackOf(c), k.conflictSpanOf(c));
    for (const core::CandIdx i : k.membersOf(c)) std::printf(" I%d", i.value());
    std::printf("\n");
  }

  std::printf("\n== solving the weighted interval assignment ==\n");
  obs::Collector stats;
  const core::LrSolver lrSolver{{}};
  const core::Assignment lr = lrSolver.solve(k, nullptr, &stats);
  std::printf("%-5s (Algorithm 2): objective %.3f after %ld iterations\n",
              lrSolver.name().data(), lr.objective,
              stats.counter(obs::names::kLrIterations));

  ilp::IlpOptions io;
  io.deadline = support::Deadline::after(10.0);
  const core::IlpSolver ilpSolver{io};
  const core::Assignment ilp = ilpSolver.solve(k, nullptr, &stats);
  std::printf("%-5s (ILP B&B)   : objective %.3f, %ld nodes, %s\n",
              ilpSolver.name().data(), ilp.objective,
              stats.counter(obs::names::kIlpNodes),
              ilp.provedOptimal ? "proven optimal"
                                  : "budget-capped incumbent");
  std::printf("LR achieves %.2f%% of the ILP objective\n",
              100.0 * lr.objective / ilp.objective);

  std::printf("\n== assignments (pin -> interval) ==\n");
  std::printf("%-8s %-22s %-22s\n", "pin", "LR", "ILP");
  for (std::size_t j = 0; j < k.numPins(); ++j) {
    auto fmt = [&](core::Index raw) -> std::string {
      if (raw == geom::kInvalidIndex) return "(none)";
      const core::CandIdx i{raw};
      char buf[64];
      std::snprintf(buf, sizeof(buf), "t%d [%d,%d]", k.trackOf(i),
                    k.spanOf(i).lo, k.spanOf(i).hi);
      return buf;
    };
    std::printf("%-8s %-22s %-22s\n",
                d.pin(k.designPinOf(core::PinIdx{j})).name.c_str(),
                fmt(lr.intervalOfPin[j]).c_str(),
                fmt(ilp.intervalOfPin[j]).c_str());
  }
  return 0;
}
