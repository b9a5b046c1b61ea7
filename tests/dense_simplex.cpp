#include "dense_simplex.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "ilp/tolerances.h"

namespace cpr::ilp {

namespace {

/// Simplex iterations between Deadline polls.
constexpr int kDeadlineCheckStride = 256;

/// Residual of the phase-1 objective above which the model is declared
/// infeasible (sum of artificials that refused to reach zero).
constexpr double kPhase1Eps = 1e-7;

/// Dense simplex tableau. Columns are [structural | slack/surplus |
/// artificial | rhs]; rows are constraints. The objective row is kept in
/// canonical form (reduced costs; rhs cell holds -z).
class Tableau {
 public:
  Tableau(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), t_((rows + 1) * (cols + 1), 0.0),
        basis_(rows, -1), banned_(cols, false) {}

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  double& at(std::size_t r, std::size_t c) { return t_[r * (cols_ + 1) + c]; }
  [[nodiscard]] double at(std::size_t r, std::size_t c) const {
    return t_[r * (cols_ + 1) + c];
  }
  double& rhs(std::size_t r) { return at(r, cols_); }
  double& obj(std::size_t c) { return at(rows_, c); }
  [[nodiscard]] double obj(std::size_t c) const { return at(rows_, c); }
  double& objRhs() { return at(rows_, cols_); }

  std::vector<int>& basis() { return basis_; }
  std::vector<char>& banned() { return banned_; }

  /// Canonicalizes the objective row for costs `c` given the current basis:
  /// obj[j] = c[j] - sum_i c[basis[i]] * T[i][j], objRhs = -z.
  void priceObjective(const std::vector<double>& c) {
    for (std::size_t j = 0; j <= cols_; ++j) obj(j) = j < c.size() ? c[j] : 0.0;
    for (std::size_t i = 0; i < rows_; ++i) {
      const int b = basis_[i];
      const double cb = b >= 0 && static_cast<std::size_t>(b) < c.size()
                            ? c[static_cast<std::size_t>(b)]
                            : 0.0;
      if (cb == 0.0) continue;
      for (std::size_t j = 0; j <= cols_; ++j) at(rows_, j) -= cb * at(i, j);
    }
  }

  void pivot(std::size_t r, std::size_t c) {
    const double piv = at(r, c);
    assert(std::abs(piv) > 0.0);
    const double inv = 1.0 / piv;
    for (std::size_t j = 0; j <= cols_; ++j) at(r, j) *= inv;
    at(r, c) = 1.0;
    for (std::size_t i = 0; i <= rows_; ++i) {
      if (i == r) continue;
      const double f = at(i, c);
      if (f == 0.0) continue;
      for (std::size_t j = 0; j <= cols_; ++j) at(i, j) -= f * at(r, j);
      at(i, c) = 0.0;
    }
    basis_[r] = static_cast<int>(c);
  }

 private:
  std::size_t rows_;
  std::size_t cols_;
  std::vector<double> t_;
  std::vector<int> basis_;
  std::vector<char> banned_;
};

enum class PivotOutcome { Optimal, Unbounded, IterationLimit, TimeLimit };

/// Runs primal simplex iterations on a canonicalized tableau; every pivot
/// performed is accumulated into `pivots`.
PivotOutcome iterate(Tableau& t, long maxIters, double eps, long& pivots,
                     support::Deadline deadline) {
  long degenerateRun = 0;
  for (long it = 0; it < maxIters; ++it) {
    if (it % kDeadlineCheckStride == 0 && deadline.expired())
      return PivotOutcome::TimeLimit;
    const bool bland = degenerateRun > tol::kDegenerateRunLimit;
    // Entering column: positive reduced cost (maximization).
    std::size_t enter = t.cols();
    double best = eps;
    for (std::size_t j = 0; j < t.cols(); ++j) {
      if (t.banned()[j]) continue;
      const double rj = t.obj(j);
      if (rj > (bland ? eps : best)) {
        enter = j;
        best = rj;
        if (bland) break;
      }
    }
    if (enter == t.cols()) return PivotOutcome::Optimal;

    // Ratio test.
    std::size_t leave = t.rows();
    double bestRatio = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < t.rows(); ++i) {
      const double a = t.at(i, enter);
      if (a <= eps) continue;
      const double ratio = t.rhs(i) / a;
      if (ratio < bestRatio - eps ||
          (ratio < bestRatio + eps &&
           (leave == t.rows() || t.basis()[i] < t.basis()[leave]))) {
        bestRatio = ratio;
        leave = i;
      }
    }
    if (leave == t.rows()) return PivotOutcome::Unbounded;
    degenerateRun = bestRatio < eps ? degenerateRun + 1 : 0;
    t.pivot(leave, enter);
    ++pivots;
  }
  return PivotOutcome::IterationLimit;
}

}  // namespace

LpResult solveLp(const Model& m, const DenseLpOptions& dense,
                 const Fixing* fix, support::Deadline deadline) {
  const std::size_t n = static_cast<std::size_t>(m.numVars());
  LpResult res;
  res.x.assign(n, 0.0);

  // Map free structural variables to tableau columns.
  std::vector<int> colOf(n, -1);
  std::size_t nFree = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (fix && (*fix)[v] >= 0) continue;
    colOf[v] = static_cast<int>(nFree++);
  }

  // Materialize rows: substitute fixings, normalize to rhs >= 0.
  struct Row {
    std::vector<std::pair<int, double>> a;  // (column, coef)
    Sense sense;
    double rhs;
  };
  std::vector<Row> rowsIn;
  rowsIn.reserve(static_cast<std::size_t>(m.numConstraints()) +
                 (dense.implicitUnitBounds ? 0 : nFree));
  for (const Constraint& c : m.constraints()) {
    Row r{{}, c.sense, c.rhs};
    for (const Term& term : c.terms) {
      const std::size_t v = static_cast<std::size_t>(term.var);
      if (fix && (*fix)[v] >= 0) {
        r.rhs -= term.coef * static_cast<double>((*fix)[v]);
      } else {
        r.a.emplace_back(colOf[v], term.coef);
      }
    }
    if (r.a.empty()) {
      // Fully substituted row: check consistency directly.
      const bool ok = (r.sense == Sense::LessEqual && 0.0 <= r.rhs + tol::kPivotEps) ||
                      (r.sense == Sense::GreaterEqual && 0.0 >= r.rhs - tol::kPivotEps) ||
                      (r.sense == Sense::Equal && std::abs(r.rhs) <= tol::kPivotEps);
      if (!ok) {
        res.status = LpStatus::Infeasible;
        return res;
      }
      continue;
    }
    rowsIn.push_back(std::move(r));
  }
  if (!dense.implicitUnitBounds) {
    for (std::size_t v = 0; v < n; ++v) {
      if (colOf[v] < 0) continue;
      rowsIn.push_back(Row{{{colOf[v], 1.0}}, Sense::LessEqual, 1.0});
    }
  }

  // Normalize rhs signs and count auxiliary columns.
  std::size_t nSlack = 0;
  std::size_t nArtif = 0;
  for (Row& r : rowsIn) {
    if (r.rhs < 0.0) {
      for (auto& [col, coef] : r.a) coef = -coef;
      r.rhs = -r.rhs;
      if (r.sense == Sense::LessEqual) r.sense = Sense::GreaterEqual;
      else if (r.sense == Sense::GreaterEqual) r.sense = Sense::LessEqual;
    }
    switch (r.sense) {
      case Sense::LessEqual: ++nSlack; break;
      case Sense::GreaterEqual: ++nSlack; ++nArtif; break;
      case Sense::Equal: ++nArtif; break;
    }
  }

  const std::size_t mRows = rowsIn.size();
  const std::size_t nCols = nFree + nSlack + nArtif;
  if (mRows == 0 || nFree == 0) {
    // Nothing to optimize; report the fixed/zero solution.
    res.status = LpStatus::Optimal;
    for (std::size_t v = 0; v < n; ++v)
      res.x[v] = (fix && (*fix)[v] >= 0) ? static_cast<double>((*fix)[v]) : 0.0;
    res.objective = m.evaluate(res.x);
    return res;
  }

  Tableau t(mRows, nCols);
  std::size_t slackAt = nFree;
  std::size_t artifAt = nFree + nSlack;
  const std::size_t artifBegin = artifAt;
  for (std::size_t i = 0; i < mRows; ++i) {
    const Row& r = rowsIn[i];
    for (const auto& [col, coef] : r.a)
      t.at(i, static_cast<std::size_t>(col)) += coef;
    t.rhs(i) = r.rhs;
    switch (r.sense) {
      case Sense::LessEqual:
        t.at(i, slackAt) = 1.0;
        t.basis()[i] = static_cast<int>(slackAt++);
        break;
      case Sense::GreaterEqual:
        t.at(i, slackAt++) = -1.0;
        t.at(i, artifAt) = 1.0;
        t.basis()[i] = static_cast<int>(artifAt++);
        break;
      case Sense::Equal:
        t.at(i, artifAt) = 1.0;
        t.basis()[i] = static_cast<int>(artifAt++);
        break;
    }
  }

  // Phase 1: maximize -(sum of artificials).
  if (nArtif > 0) {
    std::vector<double> phase1(nCols, 0.0);
    for (std::size_t j = artifBegin; j < nCols; ++j) phase1[j] = -1.0;
    t.priceObjective(phase1);
    const PivotOutcome out =
        iterate(t, tol::kDefaultLpIterationLimit, tol::kPivotEps, res.pivots, deadline);
    if (out == PivotOutcome::IterationLimit ||
        out == PivotOutcome::TimeLimit) {
      res.status = out == PivotOutcome::TimeLimit ? LpStatus::TimeLimit
                                                  : LpStatus::IterationLimit;
      return res;
    }
    const double z1 = -t.objRhs();
    if (z1 < -kPhase1Eps) {
      res.status = LpStatus::Infeasible;
      return res;
    }
    // Ban artificial columns from re-entering; drive basic ones out.
    for (std::size_t j = artifBegin; j < nCols; ++j) t.banned()[j] = true;
    for (std::size_t i = 0; i < mRows; ++i) {
      if (static_cast<std::size_t>(t.basis()[i]) < artifBegin) continue;
      std::size_t j = 0;
      for (; j < artifBegin; ++j) {
        if (!t.banned()[j] && std::abs(t.at(i, j)) > tol::kPivotEps) break;
      }
      if (j < artifBegin) {
        t.pivot(i, j);
        ++res.pivots;
      }
      // else: redundant row; the artificial stays basic at value 0.
    }
  }

  // Phase 2: original objective.
  std::vector<double> phase2(nCols, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    if (colOf[v] >= 0) phase2[static_cast<std::size_t>(colOf[v])] = m.objective()[v];
  }
  t.priceObjective(phase2);
  switch (iterate(t, tol::kDefaultLpIterationLimit, tol::kPivotEps, res.pivots, deadline)) {
    case PivotOutcome::Optimal: res.status = LpStatus::Optimal; break;
    case PivotOutcome::Unbounded: res.status = LpStatus::Unbounded; return res;
    case PivotOutcome::IterationLimit:
      res.status = LpStatus::IterationLimit;
      return res;
    case PivotOutcome::TimeLimit:
      res.status = LpStatus::TimeLimit;
      return res;
  }

  // Extract structural solution.
  std::vector<double> colVal(nCols, 0.0);
  for (std::size_t i = 0; i < mRows; ++i) {
    const int b = t.basis()[i];
    if (b >= 0 && static_cast<std::size_t>(b) < nCols)
      colVal[static_cast<std::size_t>(b)] = t.rhs(i);
  }
  for (std::size_t v = 0; v < n; ++v) {
    if (fix && (*fix)[v] >= 0) {
      res.x[v] = static_cast<double>((*fix)[v]);
    } else {
      res.x[v] = std::clamp(colVal[static_cast<std::size_t>(colOf[v])], 0.0, 1.0);
    }
  }
  res.objective = m.evaluate(res.x);
  return res;
}

LpResult DenseSimplexBackend::solve(const Fixing* fix,
                                    const LpBasis* /*warm*/,
                                    LpBasis* basisOut,
                                    support::Deadline deadline) {
  assert(model_ != nullptr && "bind() must precede solve()");
  if (basisOut) *basisOut = LpBasis{};  // dense cannot hand out a basis
  return solveLp(*model_, {}, fix, deadline);
}

}  // namespace cpr::ilp
