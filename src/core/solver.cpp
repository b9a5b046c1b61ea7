#include "core/solver.h"

#include <algorithm>

#include "core/ilp_builder.h"
#include "obs/names.h"
#include "support/contracts.h"

namespace cpr::core {

std::optional<Method> methodFromName(std::string_view name) {
  if (name == "lr") return Method::Lr;
  if (name == "ilp") return Method::Ilp;
  return std::nullopt;
}

Assignment Solver::solve(const Problem& p, obs::Collector* obs) const {
  return solve(PanelKernel::compile(Problem(p)), nullptr, obs);
}

support::Outcome<Assignment> Solver::trySolve(const PanelKernel& k,
                                              PanelScratch* scratch,
                                              obs::Collector* obs,
                                              support::Deadline deadline) const {
  Assignment a;
  try {
    a = solve(k, scratch, obs, deadline);
  } catch (const std::exception& e) {
    return support::Status::failed(std::string(name()) + ": " + e.what());
  } catch (...) {
    return support::Status::failed(std::string(name()) +
                                   ": non-standard exception");
  }
  const bool empty = std::all_of(
      a.intervalOfPin.begin(), a.intervalOfPin.end(),
      [](Index i) { return i == geom::kInvalidIndex; });
  if (a.violations > 0)
    return {support::Status::degraded("conflict rows still violated"),
            std::move(a)};
  if (empty && k.numPins() > 0) {
    if (deadline.expired())
      return {support::Status::timedOut("no incumbent within budget"),
              std::move(a)};
    return {support::Status::infeasible("nothing assigned"), std::move(a)};
  }
  if (deadline.expired() && !a.provedOptimal)
    return {support::Status::timedOut("budget fired; best incumbent returned"),
            std::move(a)};
  return {support::Status::ok(), std::move(a)};
}

Assignment LrSolver::solve(const PanelKernel& k, PanelScratch* scratch,
                           obs::Collector* obs,
                           support::Deadline deadline) const {
  return solveLr(k, opts_, nullptr, obs, scratch ? &scratch->lr : nullptr,
                 deadline);
}

Assignment IlpSolver::solve(const PanelKernel& k, PanelScratch* /*scratch*/,
                            obs::Collector* obs,
                            support::Deadline deadline) const {
  const IlpBuild build = buildIlpModel(k);
  // The one place the per-call budget meets the options budget: composed
  // here, then carried by IlpOptions::deadline through every LP solve.
  ilp::IlpOptions opts = opts_;
  opts.deadline = support::Deadline::soonerOf(opts_.deadline, deadline);
  const ilp::IlpResult res = ilp::solveBinaryIlp(build.model, opts);
  obs::add(obs, obs::names::kIlpNodes, res.nodesExplored);
  obs::add(obs, obs::names::kIlpPivots, res.lpPivots);
  obs::add(obs, obs::names::kIlpWarmSolves, res.lpWarmSolves);
  obs::add(obs, obs::names::kIlpColdSolves, res.lpColdSolves);
  if (res.status != ilp::IlpStatus::Optimal)
    obs::add(obs, obs::names::kIlpNotProved);
  if (res.status == ilp::IlpStatus::TimeLimit)
    obs::add(obs, obs::names::kIlpTimeout);
  if (res.x.empty()) {
    // No incumbent within budget: report an empty (all-unassigned)
    // assignment rather than inventing one.
    Assignment out;
    out.intervalOfPin.assign(k.numPins(), geom::kInvalidIndex);
    return out;
  }
  Assignment out = decodeIlpSolution(k, build, res.x);
  out.provedOptimal = res.status == ilp::IlpStatus::Optimal;
  return out;
}

std::unique_ptr<Solver> makeSolver(const SolverOptions& opts) {
  switch (opts.method) {
    case Method::Lr: return std::make_unique<LrSolver>(opts.lr);
    case Method::Ilp: return std::make_unique<IlpSolver>(opts.ilp);
  }
  CPR_UNREACHABLE();
}

}  // namespace cpr::core
