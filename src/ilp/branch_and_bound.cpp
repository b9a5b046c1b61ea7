#include "ilp/branch_and_bound.h"

#include <cmath>
#include <limits>

#include "ilp/revised_simplex.h"

namespace cpr::ilp {

namespace {

struct Search {
  Search(const Model& m, const IlpOptions& o) : model(m), opts(o) {
    lp.bind(model, opts.lp);
  }

  const Model& model;
  const IlpOptions& opts;
  RevisedSimplexBackend lp;
  IlpResult result;
  bool haveIncumbent = false;
  bool truncated = false;
  bool timedOut = false;

  [[nodiscard]] bool outOfBudget() {
    if (result.nodesExplored >= opts.maxNodes) {
      truncated = true;
      return true;
    }
    if (opts.deadline.expired()) {
      timedOut = true;
      return true;
    }
    return false;
  }

  /// `parent` is the optimal basis of the parent node's relaxation (empty at
  /// the root): the child re-solve starts dual-feasible from it after the
  /// branching bound change.
  void explore(Fixing& fix, const LpBasis& parent) {
    if (outOfBudget()) return;
    ++result.nodesExplored;

    LpBasis basis;
    const LpResult relax = lp.solve(&fix, &parent, &basis, opts.deadline);
    result.lpPivots += relax.pivots;
    if (relax.warmStarted) ++result.lpWarmSolves;
    else ++result.lpColdSolves;
    if (relax.status == LpStatus::Infeasible) return;
    if (relax.status == LpStatus::TimeLimit) {
      timedOut = true;
      return;
    }
    if (relax.status != LpStatus::Optimal) {
      // Iteration-limited or unbounded relaxation: cannot certify this
      // subtree; treat the search as truncated rather than mispruning.
      truncated = true;
      return;
    }
    if (haveIncumbent &&
        relax.objective <= result.objective + tol::kBoundImprovementEps)
      return;

    // Find the most fractional variable.
    Index branchVar = -1;
    double bestFrac = tol::kIntegralityEps;
    for (Index v = 0; v < model.numVars(); ++v) {
      if (fix[static_cast<std::size_t>(v)] >= 0) continue;
      const double xv = relax.x[static_cast<std::size_t>(v)];
      const double frac = std::min(xv, 1.0 - xv);
      if (frac > bestFrac) {
        bestFrac = frac;
        branchVar = v;
      }
    }
    if (branchVar < 0) {
      // Integral solution: round and accept as incumbent.
      std::vector<double> x(relax.x.size());
      for (std::size_t v = 0; v < x.size(); ++v) x[v] = std::round(relax.x[v]);
      if (!model.feasible(x)) return;  // defensive: rounding artifact
      const double obj = model.evaluate(x);
      if (!haveIncumbent || obj > result.objective) {
        result.objective = obj;
        result.x = std::move(x);
        haveIncumbent = true;
      }
      return;
    }

    fix[static_cast<std::size_t>(branchVar)] = 1;
    explore(fix, basis);
    fix[static_cast<std::size_t>(branchVar)] = 0;
    explore(fix, basis);
    fix[static_cast<std::size_t>(branchVar)] = -1;
  }
};

}  // namespace

IlpResult solveBinaryIlp(const Model& m, const IlpOptions& opts) {
  Search search(m, opts);
  Fixing fix(static_cast<std::size_t>(m.numVars()), -1);
  const LpBasis root;  // empty: the root relaxation always cold-starts
  search.explore(fix, root);

  IlpResult res = std::move(search.result);
  if (search.timedOut) {
    res.status = IlpStatus::TimeLimit;
  } else if (search.truncated) {
    res.status = IlpStatus::NodeLimit;
  } else if (!search.haveIncumbent) {
    res.status = IlpStatus::Infeasible;
  } else {
    res.status = IlpStatus::Optimal;
  }
  return res;
}

}  // namespace cpr::ilp
