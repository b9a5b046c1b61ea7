/// \file bench_table2_routers.cpp
/// Reproduces Table 2: solution quality of the three routing approaches on
/// the six-design suite — sequential pin access planning [12], routing
/// without pin access optimization [21], and CPR.
///
/// Usage: bench_table2_routers [--designs ecc,efc,...] [--threads n]
///        [--thread-sweep 1,2,4,8] [--report out.json]
///        (default: all six designs)
///
/// `--threads n` runs both negotiated columns (noPAO and CPR, pin access
/// included) at n threads, so their cpu(s) columns compare like with like.
/// The sequential column has no thread knob: `routeSequential` is a
/// single-threaded driver.
///
/// `--thread-sweep` appends a routing-only scaling table: pin access runs
/// once per design, then the negotiation router reruns at each listed thread
/// count. Rows land in the `route.sweep` series of the report (columns:
/// design index, threads, RRR span seconds, total route seconds, digest),
/// which is where CI reads the speedup curve from. The digest column is an
/// FNV-1a hash of every net's outcome and must be identical down the sweep —
/// thread count is a pure throughput knob.
///
/// The report's `route.scratch.peak_bytes` gauge is the largest per-worker
/// maze arena over every negotiation-router run (table and sweep); CI
/// bounds it, since those arenas are sized to search windows, not the die.
/// The sequential router is left out: its global retry searches the whole
/// die by design.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "eval/metrics.h"
#include "obs/names.h"
#include "route/cpr.h"
#include "route/sequential_router.h"
#include "support/alloc_hook.h"

namespace {

struct Row {
  cpr::eval::Metrics seq, nopao, cpr_;
};

/// Seconds spent in the named span, summed over occurrences.
double spanSeconds(const cpr::obs::Collector& stats, std::string_view name) {
  double total = 0.0;
  for (const cpr::obs::Span& s : stats.spans()) {
    if (s.name == name)
      total += std::chrono::duration<double>(s.dur).count();
  }
  return total;
}

std::vector<int> parseCounts(const std::string& arg) {
  std::vector<int> out;
  std::size_t pos = 0;
  while (pos < arg.size()) {
    const std::size_t comma = arg.find(',', pos);
    const std::string tok =
        arg.substr(pos, comma == std::string::npos ? arg.npos : comma - pos);
    out.push_back(std::stoi(tok));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

void printRow(const cpr::gen::SuiteSpec& spec, const cpr::db::Design& d,
              const Row& r) {
  std::printf("%-5s %6zu %7s", spec.name.c_str(), d.nets().size(),
              (std::to_string(static_cast<int>(spec.widthUm)) + "x" +
               std::to_string(static_cast<int>(spec.heightUm)))
                  .c_str());
  for (const cpr::eval::Metrics* m : {&r.seq, &r.nopao, &r.cpr_}) {
    std::printf(" | %6.2f %7ld %8ld %8.2f", m->routability, m->vias,
                m->wirelength, m->seconds);
  }
  std::printf("\n");
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cpr;
  bench::Harness h("bench_table2_routers",
                   "Table 2: routing quality of sequential planning, "
                   "no-pin-access routing, and CPR");
  std::string sweepArg;
  h.parser().option("--thread-sweep", "1,2,4,8",
                    "rerun the CPR routing stage at each thread count and "
                    "report the route.sweep scaling series",
                    &sweepArg);
  if (const int rc = h.parse(argc, argv); rc >= 0) return rc;
  const auto suite = h.suite();
  obs::Collector report;
  report.note("bench", "table2_routers");

  // Arm the hot-path allocation gate for the whole run (the counting
  // operator new is linked into every bench). Any allocation inside a
  // support::alloc::HotRegion — today the maze A* loop — lands in the
  // `pao.alloc.hot_path_allocs` counter below; CI asserts it stays 0.
  support::alloc::resetHotRegionAllocs();
  support::alloc::arm(true);

  std::printf("Table 2: comparisons on solution qualities of different "
              "routing approaches\n");
  std::printf("%-5s %6s %7s | %-32s | %-32s | %-32s\n", "Ckt", "Net#",
              "Size", "Sequential pin access planning [12]",
              "Routing w/o pin access opt [21]", "CPR");
  std::printf("%-5s %6s %7s", "", "", "");
  for (int k = 0; k < 3; ++k)
    std::printf(" | %6s %7s %8s %8s", "Rout%", "Via#", "WL", "cpu(s)");
  std::printf("\n");
  bench::hr();

  // Largest per-worker maze arena over the negotiation-router runs below.
  double routeScratchPeak = 0.0;
  auto notePeak = [&](const route::RoutingResult& r) {
    routeScratchPeak = std::max(
        routeScratchPeak,
        r.stats.gaugeOr(obs::names::kRouteScratchPeakBytes, 0.0));
  };

  Row sum{};
  int designs = 0;
  for (const gen::SuiteSpec& spec : suite) {
    const db::Design d = gen::makeSuiteDesign(spec);

    const eval::Metrics mSeq = eval::summarize(d, route::routeSequential(d));

    route::NegotiationOptions nopts;
    nopts.threads = h.threads();
    const route::RoutingResult rNoPao =
        route::routeNegotiated(d, nullptr, nopts);
    notePeak(rNoPao);
    const eval::Metrics mNoPao = eval::summarize(d, rNoPao);

    route::CprOptions copts;
    copts.pinAccess.threads = h.threads();
    copts.routing.threads = h.threads();
    const route::CprResult c = route::routeCpr(d, copts);
    notePeak(c.routing);
    const eval::Metrics mCpr =
        eval::summarize(d, c.routing, c.pinAccessSeconds);
    report.merge(c.plan.stats);

    printRow(spec, d, Row{mSeq, mNoPao, mCpr});
    auto acc = [](eval::Metrics& a, const eval::Metrics& b) {
      a.routability += b.routability;
      a.vias += b.vias;
      a.wirelength += b.wirelength;
      a.seconds += b.seconds;
    };
    acc(sum.seq, mSeq);
    acc(sum.nopao, mNoPao);
    acc(sum.cpr_, mCpr);
    ++designs;
  }
  bench::hr();
  if (designs > 0) {
    std::printf("%-5s %6s %7s", "Avg.", "", "");
    for (const eval::Metrics* m : {&sum.seq, &sum.nopao, &sum.cpr_}) {
      std::printf(" | %6.2f %7ld %8ld %8.2f", m->routability / designs,
                  m->vias / designs, m->wirelength / designs,
                  m->seconds / designs);
    }
    std::printf("\n%-5s %6s %7s", "Ratio", "", "");
    for (const eval::Metrics* m : {&sum.seq, &sum.nopao, &sum.cpr_}) {
      std::printf(" | %6.3f %7.3f %8.3f %8.2f",
                  m->routability / sum.cpr_.routability,
                  static_cast<double>(m->vias) / sum.cpr_.vias,
                  static_cast<double>(m->wirelength) / sum.cpr_.wirelength,
                  m->seconds / sum.cpr_.seconds);
    }
    std::printf("\n");
    std::printf("\nPaper ratios (vs CPR): [12] Rout 0.985 Via 1.238 WL 1.160 "
                "cpu 12.69 | [21] Rout 0.962 Via 1.108 WL 0.998 cpu 3.26\n");
  }
  if (!sweepArg.empty()) {
    const std::vector<int> counts = parseCounts(sweepArg);
    std::printf("\nRouting scaling sweep (CPR scheme, pin access planned "
                "once per design)\n");
    std::printf("%-5s %8s %10s %10s %7s  %s\n", "Ckt", "threads", "rrr(s)",
                "route(s)", "x1/xN", "digest");
    bench::hr();
    int designIdx = 0;
    for (const gen::SuiteSpec& spec : suite) {
      const db::Design d = gen::makeSuiteDesign(spec);
      route::CprOptions copts;
      copts.pinAccess.threads = h.threads();
      const core::PinAccessPlan plan =
          core::optimizePinAccess(d, copts.pinAccess);
      double base = 0.0;
      for (int n : counts) {
        route::NegotiationOptions ropts = copts.routing;
        ropts.threads = n;
        const route::RoutingResult r = route::routeNegotiated(d, &plan, ropts);
        notePeak(r);
        const double rrr = spanSeconds(r.stats, obs::names::kRouteRrrSpan);
        if (n == counts.front()) base = r.seconds;
        const std::uint64_t digest = resultDigest(r);
        std::printf("%-5s %8d %10.3f %10.3f %7.2f  %016llx\n",
                    spec.name.c_str(), n, rrr, r.seconds,
                    r.seconds > 0.0 ? base / r.seconds : 0.0,
                    static_cast<unsigned long long>(digest));
        report.row(obs::names::kRouteSweepSeries,
                   {"design", "threads", "rrr_seconds", "route_seconds",
                    "digest"},
                   {static_cast<double>(designIdx), static_cast<double>(n),
                    rrr, r.seconds, static_cast<double>(digest >> 12)});
      }
      ++designIdx;
    }
    bench::hr();
  }
  support::alloc::arm(false);
  const long hotAllocs = support::alloc::hotRegionAllocs();
  report.add(obs::names::kPaoHotPathAllocs, hotAllocs);
  std::printf("\nhot-path allocations (armed gate, all runs): %ld\n",
              hotAllocs);
  report.gauge(obs::names::kRouteScratchPeakBytes, routeScratchPeak);
  std::printf("largest maze search arena (negotiation runs): %.0f bytes\n",
              routeScratchPeak);
  h.maybeWriteReport(report);
  return hotAllocs == 0 ? 0 : 3;
}
