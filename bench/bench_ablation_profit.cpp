/// \file bench_ablation_profit.cpp
/// Ablation: the paper sets f(I) = sqrt(l) "because the square root function
/// generates more balanced solutions while maximizing the interval length,
/// compared to a linear function" (Section 3.3). This bench quantifies that:
/// for both profit models it reports the assigned-span distribution (mean,
/// min, coefficient of variation) and the downstream routing quality.
///
/// Usage: bench_ablation_profit [--designs ecc,...] [--threads n]
///        [--report out.json]
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "eval/metrics.h"
#include "route/cpr.h"

namespace {

struct SpanStats {
  double mean = 0.0;
  double cv = 0.0;  ///< coefficient of variation (stddev / mean)
  long assigned = 0;
};

SpanStats spanStats(const cpr::core::PinAccessPlan& plan) {
  SpanStats s;
  double sum = 0.0;
  double sq = 0.0;
  for (const cpr::core::PinRoute& r : plan.routes) {
    if (!r.valid()) continue;
    const double span = r.span.span();
    sum += span;
    sq += span * span;
    ++s.assigned;
  }
  if (s.assigned == 0) return s;
  s.mean = sum / s.assigned;
  const double var = sq / s.assigned - s.mean * s.mean;
  s.cv = s.mean > 0 ? std::sqrt(std::max(0.0, var)) / s.mean : 0.0;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cpr;
  bench::Harness h("bench_ablation_profit",
                   "ablation: sqrt vs linear interval profit");
  if (const int rc = h.parse(argc, argv); rc >= 0) return rc;
  const auto suite = h.suite();
  obs::Collector report;
  report.note("bench", "ablation_profit");

  std::printf("Ablation: sqrt vs linear interval profit (Section 3.3)\n");
  std::printf("%-5s %-7s | %9s %7s | %7s %8s %9s\n", "Ckt", "profit",
              "meanSpan", "spanCV", "Rout.%", "Via#", "WL");
  bench::hr();

  for (const gen::SuiteSpec& spec : suite) {
    const db::Design d = gen::makeSuiteDesign(spec);
    for (const auto model : {core::ProfitModel::SqrtSpan,
                             core::ProfitModel::LinearSpan}) {
      route::CprOptions opts;
      opts.pinAccess.threads = h.threads();
      opts.pinAccess.gen.profitModel = model;
      const route::CprResult r = route::routeCpr(d, opts);
      report.merge(r.plan.stats);
      const eval::Metrics m = eval::summarize(d, r.routing);
      const SpanStats s = spanStats(r.plan);
      std::printf("%-5s %-7s | %9.2f %7.3f | %7.2f %8ld %9ld\n",
                  spec.name.c_str(),
                  model == core::ProfitModel::SqrtSpan ? "sqrt" : "linear",
                  s.mean, s.cv, m.routability, m.vias, m.wirelength);
      std::fflush(stdout);
    }
  }
  std::printf("(sqrt should show a lower span coefficient of variation — "
              "more balanced intervals — at comparable routing quality)\n");
  h.maybeWriteReport(report);
  return 0;
}
