/// \file cpr_route.cpp
/// Command-line front end: load or synthesize a design, route it with any of
/// the three schemes, and export reports, traces, SVG pictures, and routed
/// DEF.
///
///   cpr_route --design ecc                       # synthesize a suite design
///   cpr_route --def my.def                       # or load a DEF subset
///   cpr_route --design ecc --scheme nopao        # cpr | nopao | seq
///   cpr_route --design ecc --pin-access ilp      # lr | ilp
///   cpr_route --design ecc --threads 4 --report run.json --trace run.trace.json
///   cpr_route --design ecc --svg out.svg --routed-def out.def --seed 9
///   cpr_route --def big.def --time-limit 30 --panel-budget 0.5
///
/// Exit codes (see --help): 0 success, 2 usage error, 3 bad input (DEF parse
/// or design validation failure), 4 completed but degraded (some panels fell
/// down the degradation ladder), 5 internal error.
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>

#include "cli.h"
#include "eval/metrics.h"
#include "gen/generator.h"
#include "lefdef/def_io.h"
#include "route/def_export.h"
#include "obs/names.h"
#include "obs/report.h"
#include "route/cpr.h"
#include "support/deadline.h"
#include "viz/svg.h"

namespace {

struct Args {
  std::string design;
  std::string defPath;
  std::string scheme = "cpr";
  std::string pinAccess = "lr";
  std::string svgPath;
  std::string routedDefPath;
  std::string reportPath;
  std::string tracePath;
  std::uint64_t seed = 7;
  int threads = 0;         ///< 0 = hardware concurrency
  double timeLimit = 0.0;  ///< run wall-clock budget, seconds (0 = none)
  double panelBudget = 0.0;  ///< per-panel solve budget, seconds (0 = none)
  bool digest = false;       ///< print the result digest line
};

constexpr char kExitCodeHelp[] =
    "exit codes:\n"
    "  0  success\n"
    "  2  usage error (unknown flag, bad value, no design)\n"
    "  3  bad input: DEF parse error (line number on stderr) or the design\n"
    "     failed validation\n"
    "  4  completed, but degraded: some panels lost their primary solver\n"
    "     (see the pao.panel.failed / pao.panel.degraded counters)\n"
    "  5  internal error, or an output file could not be written\n"
    "  6  (reserved: cancelled — used by cpr_client/cpr_served for jobs\n"
    "     rejected by admission control; cpr_route itself never cancels)\n"
    "The table is cli::exitCodeFor, shared with cpr_served and cpr_client.\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace cpr;
  Args args;
  cli::Parser parser("cpr_route", "concurrent pin access routing");
  parser.option("--design", "ecc|efc|ctl|alu|div|top",
                "synthesize a suite benchmark", &args.design);
  parser.option("--def", "path", "load a DEF-subset design instead",
                &args.defPath);
  parser.option("--scheme", "cpr|nopao|seq", "routing scheme (default cpr)",
                &args.scheme);
  parser.option("--pin-access", "lr|ilp",
                "pin access optimizer for the cpr scheme: lr (Algorithm 2) "
                "or ilp (Formula (1) solved to proven optimality by the "
                "LP-based branch & bound, the paper's ILP; slow, and "
                "unbudgeted unless --panel-budget is given)",
                &args.pinAccess);
  parser.option("--threads", "n",
                "worker threads for pin access panels and wave-parallel "
                "routing (default: hardware; results are thread-count "
                "invariant)",
                &args.threads);
  parser.option("--report", "path", "write a cpr.report.v1 JSON run report",
                &args.reportPath);
  parser.option("--trace", "path",
                "write a Chrome trace_event file (chrome://tracing)",
                &args.tracePath);
  parser.option("--svg", "path", "write an SVG of the result", &args.svgPath);
  parser.option("--routed-def", "path", "write routed DEF",
                &args.routedDefPath);
  parser.option("--seed", "n", "generator seed (default 7)", &args.seed);
  parser.option("--time-limit", "seconds",
                "run wall-clock budget; when it fires, pin access panels "
                "degrade gracefully and routing loops stop early (0 = none)",
                &args.timeLimit);
  parser.option("--panel-budget", "seconds",
                "per-panel pin access solve budget (0 = none)",
                &args.panelBudget);
  parser.flag("--digest",
              "print the FNV-1a result digest (route::resultDigest) — the "
              "same value cpr_served reports, for cross-checking service "
              "results against a direct run",
              &args.digest);
  parser.epilog(kExitCodeHelp);
  if (!parser.parse(argc, argv)) return 2;
  if (parser.helpRequested() ||
      (args.design.empty() && args.defPath.empty())) {
    parser.printUsage(parser.helpRequested() ? stdout : stderr);
    return parser.helpRequested() ? 0 : 2;
  }
  const auto scheme = route::schemeFromName(args.scheme);
  if (!scheme) {
    std::fprintf(stderr, "unknown --scheme %s (want cpr|nopao|seq)\n",
                 args.scheme.c_str());
    return 2;
  }
  const std::optional<core::Method> method =
      core::methodFromName(args.pinAccess);
  if (!method) {
    std::fprintf(stderr, "unknown --pin-access %s (want lr|ilp)\n",
                 args.pinAccess.c_str());
    return 2;
  }

  int exitCode = 0;
  try {
    const support::Deadline runDeadline =
        args.timeLimit > 0.0 ? support::Deadline::after(args.timeLimit)
                             : support::Deadline{};
    const gen::SuiteSpec* spec = nullptr;
    if (args.defPath.empty()) {
      try {
        spec = &gen::suiteSpec(args.design);
      } catch (const std::invalid_argument&) {
        std::fprintf(stderr,
                     "unknown --design %s (want ecc|efc|ctl|alu|div|top)\n",
                     args.design.c_str());
        return 2;
      }
    }
    const db::Design d = spec ? gen::makeSuiteDesign(*spec, args.seed)
                              : lefdef::loadDef(args.defPath);
    if (const std::string report = d.validate(); !report.empty()) {
      std::fprintf(stderr, "design fails validation:\n%s", report.c_str());
      return 3;
    }
    std::printf("design %s: %zu nets, %zu pins, %d x %d grid\n",
                d.name().c_str(), d.nets().size(), d.pins().size(), d.width(),
                d.gridHeight());

    // Root collector for --report / --trace: plan and routing stats merge
    // into it, plus the run's own metadata.
    obs::Collector run;
    run.note("cli.design", d.name());
    run.note("cli.scheme", args.scheme);
    run.gauge("cli.seed", static_cast<double>(args.seed));

    route::CprOptions opts;
    opts.routing.deadline = runDeadline;
    opts.routing.threads = args.threads;
    opts.pinAccess.threads = args.threads;
    opts.pinAccess.deadline = runDeadline;
    opts.pinAccess.panelBudgetSeconds = args.panelBudget;
    opts.pinAccess.solve.method = *method;
    if (*scheme == route::Scheme::Cpr)
      run.note("cli.pin_access", args.pinAccess);
    const route::CprResult r = route::routeScheme(d, *scheme, opts);
    const route::RoutingResult& result = r.routing;
    run.merge(r.plan.stats);
    if (const long faulted = r.plan.panelsBelowPrimary(); faulted > 0) {
      std::fprintf(stderr,
                   "warning: %ld panel(s) degraded below the primary "
                   "solver (failed=%ld degraded=%ld)\n",
                   faulted, r.plan.stats.counter(obs::names::kPaoPanelFailed),
                   r.plan.stats.counter(obs::names::kPaoPanelDegraded));
      exitCode = 4;  // completed, but degraded
    }
    run.merge(result.stats);

    const eval::Metrics m = eval::summarize(d, result, r.pinAccessSeconds);
    std::printf("%s\n", eval::tableHeader().c_str());
    std::printf("%s\n", eval::tableRow(args.scheme, m).c_str());
    std::printf("congested grids before RRR: %ld, DRC violations at signoff: "
                "%ld\n",
                m.congestedGridsBeforeRrr, m.drcViolations);
    if (args.digest) {
      std::printf("route digest: %016llx\n",
                  static_cast<unsigned long long>(
                      route::resultDigest(result)));
    }

    if (!args.reportPath.empty()) {
      obs::saveReportJson(run, args.reportPath);
      std::printf("wrote %s\n", args.reportPath.c_str());
    }
    if (!args.tracePath.empty()) {
      obs::saveChromeTrace(run, args.tracePath);
      std::printf("wrote %s\n", args.tracePath.c_str());
    }
    if (!args.svgPath.empty()) {
      viz::saveSvg(d, &r.plan, &result.geometry, args.svgPath);
      std::printf("wrote %s\n", args.svgPath.c_str());
    }
    if (!args.routedDefPath.empty()) {
      std::ofstream os(args.routedDefPath);
      if (!os) throw std::runtime_error("cannot write " + args.routedDefPath);
      route::writeRoutedDef(d, result.geometry, os);
      std::printf("wrote %s\n", args.routedDefPath.c_str());
    }
  } catch (const lefdef::DefParseError& e) {
    // e.what() already carries "DEF parse error at line N: ...".
    std::fprintf(stderr, "error: %s: %s\n", args.defPath.c_str(), e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 5;
  }
  return exitCode;
}
