/// \file bench_micro_kernels.cpp
/// google-benchmark micro benchmarks of the library's hot kernels: building
/// one panel's kernel (interval generation, conflict sets, CSR finish), one
/// LR solve over it (arena-reused, the optimizer's steady-state
/// configuration), the maze search, and DEF round-trip I/O.
///
/// Usage mirrors the other benches: `--report out.json` writes the standard
/// google-benchmark JSON (mapped onto --benchmark_out); every native
/// --benchmark_* flag still works, anything else is rejected.
#include <benchmark/benchmark.h>

#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/interval_gen.h"
#include "core/solver.h"
#include "db/panel.h"
#include "gen/generator.h"
#include "lefdef/def_io.h"
#include "route/engine.h"

namespace {

using namespace cpr;

db::Design benchDesign() {
  gen::GenOptions o;
  o.seed = 21;
  o.width = 400;
  o.numRows = 8;
  o.pinDensity = 0.2;
  o.minPinTracks = 2;
  o.maxPinTracks = 4;
  o.maxNetSpan = 60;
  o.m3Pitch = 3;
  o.blockagesPerRow = 6;
  return gen::generate(o);
}

core::PanelKernel benchKernel(const db::Design& d, const db::Panel& panel) {
  core::GenOptions g;
  g.maxExtent = 32;
  return core::buildPanelKernel(d, {&panel, 1}, g);
}

void BM_PanelBuild(benchmark::State& state) {
  const db::Design d = benchDesign();
  const db::Panel panel = db::extractPanel(d, 3);
  for (auto _ : state) {
    const core::PanelKernel k = benchKernel(d, panel);
    benchmark::DoNotOptimize(k.footprintBytes());
  }
}
BENCHMARK(BM_PanelBuild);

void BM_LrSolvePanel(benchmark::State& state) {
  const db::Design d = benchDesign();
  const core::PanelKernel k = benchKernel(d, db::extractPanel(d, 3));
  const core::LrSolver solver;
  core::PanelScratch scratch;  // reused, as in the optimizer's worker loop
  for (auto _ : state) {
    const core::Assignment a = solver.solve(k, &scratch);
    benchmark::DoNotOptimize(a.objective);
  }
}
BENCHMARK(BM_LrSolvePanel);

void BM_MazeRouteNet(benchmark::State& state) {
  const db::Design d = benchDesign();
  route::RouteEngine engine(d, nullptr);
  route::MazeScratch scratch;  // reused, as in the router's worker loop
  const auto net = static_cast<db::Index>(d.nets().size() / 2);
  for (auto _ : state) {
    const bool ok = engine.routeNet(net, {}, scratch);
    benchmark::DoNotOptimize(ok);
    engine.ripNet(net);
  }
}
BENCHMARK(BM_MazeRouteNet);

void BM_DefRoundTrip(benchmark::State& state) {
  const db::Design d = benchDesign();
  for (auto _ : state) {
    std::stringstream ss;
    lefdef::writeDef(d, ss);
    const db::Design back = lefdef::readDef(ss);
    benchmark::DoNotOptimize(back.pins().size());
  }
}
BENCHMARK(BM_DefRoundTrip);

}  // namespace

int main(int argc, char** argv) {
  // Map the benches' uniform `--report <path>` onto google-benchmark's
  // --benchmark_out before handing over; unrecognized flags still error.
  std::vector<char*> args;
  args.push_back(argv[0]);
  std::string outFlag;
  std::string fmtFlag = "--benchmark_out_format=json";
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--report" && i + 1 < argc) {
      outFlag = std::string("--benchmark_out=") + argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  if (!outFlag.empty()) {
    args.push_back(outFlag.data());
    args.push_back(fmtFlag.data());
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
