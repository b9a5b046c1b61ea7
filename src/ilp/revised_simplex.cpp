#include "ilp/revised_simplex.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace cpr::ilp {
namespace {

constexpr std::size_t kNoRow = std::numeric_limits<std::size_t>::max();

/// A bound is "infinite" when it carries the kInfiniteBound sentinel; the
/// halved threshold keeps the test robust under arithmetic on the sentinel.
bool finiteLower(double lo) { return lo > -tol::kInfiniteBound / 2; }
bool finiteUpper(double hi) { return hi < tol::kInfiniteBound / 2; }

}  // namespace

void RevisedSimplexBackend::bind(const Model& m, const LpOptions& opts) {
  model_ = &m;
  opts_ = opts;
  n_ = static_cast<std::size_t>(m.numVars());
  m_ = static_cast<std::size_t>(m.numConstraints());
  const std::size_t total = n_ + m_;

  // CSC over the structural columns, built in two passes from the row-wise
  // constraint storage.
  colPtr_.assign(n_ + 1, 0);
  for (const Constraint& row : m.constraints())
    for (const Term& t : row.terms)
      ++colPtr_[static_cast<std::size_t>(t.var) + 1];
  for (std::size_t j = 0; j < n_; ++j) colPtr_[j + 1] += colPtr_[j];
  rowIdx_.assign(colPtr_[n_], 0);
  colVal_.assign(colPtr_[n_], 0.0);
  std::vector<std::size_t> fill(colPtr_.begin(), colPtr_.end() - 1);
  rhs_.assign(m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    const Constraint& row = m.constraints()[i];
    rhs_[i] = row.rhs;
    for (const Term& t : row.terms) {
      const std::size_t j = static_cast<std::size_t>(t.var);
      rowIdx_[fill[j]] = static_cast<std::int32_t>(i);
      colVal_[fill[j]] = t.coef;
      ++fill[j];
    }
  }

  // Equality form A x + I s = b. Structurals are the model's binaries in
  // [0,1]; the slack of row i absorbs the sense.
  cost_.assign(total, 0.0);
  loBase_.assign(total, 0.0);
  hiBase_.assign(total, 0.0);
  for (std::size_t j = 0; j < n_; ++j) {
    cost_[j] = m.objective()[j];
    loBase_[j] = 0.0;
    hiBase_[j] = 1.0;
  }
  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t s = n_ + i;
    switch (m.constraints()[i].sense) {
      case Sense::LessEqual:
        loBase_[s] = 0.0;
        hiBase_[s] = tol::kInfiniteBound;
        break;
      case Sense::GreaterEqual:
        loBase_[s] = -tol::kInfiniteBound;
        hiBase_[s] = 0.0;
        break;
      case Sense::Equal:
        loBase_[s] = 0.0;
        hiBase_[s] = 0.0;
        break;
    }
  }

  basic_.assign(m_, 0);
  state_.assign(total, VarState::AtLower);
  binv_.clear();  // sized by the first coldStart / refactorize
  basisValid_ = false;
  refactorizations_ = 0;
}

double RevisedSimplexBackend::columnDot(const std::vector<double>& rowVec,
                                        std::size_t col) const {
  if (col >= n_) return rowVec[col - n_];  // slack column = unit vector
  double acc = 0.0;
  for (std::size_t k = colPtr_[col]; k < colPtr_[col + 1]; ++k)
    acc += rowVec[static_cast<std::size_t>(rowIdx_[k])] * colVal_[k];
  return acc;
}

bool RevisedSimplexBackend::outOfTime() {
  if (!deadline_.expired()) return false;
  basisValid_ = false;  // the inverse may be half rebuilt
  return true;
}

bool RevisedSimplexBackend::refactorize() {
  // Product-form rebuild: start from the identity (the all-slack basis) and
  // replace one basis position at a time with its actual column via the
  // standard simplex basis-change update. Positions still holding their own
  // slack cost nothing, so the rebuild is O(k·m^2) for k non-slack columns —
  // on the panel models k is the variable count, far below the row count m,
  // where the dense Gauss-Jordan's O(m^3) dominated every solve. Positions
  // whose pivot is momentarily too small are deferred and retried after the
  // others; if no ordering works, fall back to dense elimination. Each
  // position costs O(m^2), so the solve's deadline is polled per position.
  binv_.assign(m_ * m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) binv_[i * m_ + i] = 1.0;
  std::vector<std::size_t> pending;
  for (std::size_t i = 0; i < m_; ++i)
    if (static_cast<std::size_t>(basic_[i]) != n_ + i) pending.push_back(i);

  eta_.resize(m_);
  bool progress = true;
  while (!pending.empty() && progress) {
    progress = false;
    std::vector<std::size_t> defer;
    for (const std::size_t r : pending) {
      if (outOfTime()) return false;
      const std::size_t q = static_cast<std::size_t>(basic_[r]);
      if (q >= n_) {
        // Foreign slack: its column is a unit vector, eta = Binv column.
        for (std::size_t i = 0; i < m_; ++i) eta_[i] = binv_[i * m_ + (q - n_)];
      } else {
        for (std::size_t i = 0; i < m_; ++i) {
          const double* row = binv_.data() + i * m_;
          double acc = 0.0;
          for (std::size_t k = colPtr_[q]; k < colPtr_[q + 1]; ++k)
            acc += row[static_cast<std::size_t>(rowIdx_[k])] * colVal_[k];
          eta_[i] = acc;
        }
      }
      if (std::abs(eta_[r]) <= tol::kPivotEps) {
        defer.push_back(r);
        continue;
      }
      progress = true;
      double* rowR = binv_.data() + r * m_;
      const double inv = 1.0 / eta_[r];
      for (std::size_t c = 0; c < m_; ++c) rowR[c] *= inv;
      for (std::size_t i = 0; i < m_; ++i) {
        if (i == r) continue;
        const double f = eta_[i];
        if (f == 0.0) continue;
        double* rowI = binv_.data() + i * m_;
        for (std::size_t c = 0; c < m_; ++c) rowI[c] -= f * rowR[c];
      }
    }
    pending = std::move(defer);
  }
  if (!pending.empty()) return refactorizeDense();
  ++refactorizations_;
  basisValid_ = true;
  return true;
}

bool RevisedSimplexBackend::refactorizeDense() {
  // Rebuild the explicit inverse from scratch: Gauss-Jordan with partial
  // pivoting on the basis matrix, mirroring every row operation into binv_.
  if (outOfTime()) return false;  // before allocating a second m x m matrix
  std::vector<double> bmat(m_ * m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    const std::size_t col = static_cast<std::size_t>(basic_[i]);
    if (col >= n_) {
      bmat[(col - n_) * m_ + i] = 1.0;
    } else {
      for (std::size_t k = colPtr_[col]; k < colPtr_[col + 1]; ++k)
        bmat[static_cast<std::size_t>(rowIdx_[k]) * m_ + i] = colVal_[k];
    }
  }
  binv_.assign(m_ * m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) binv_[i * m_ + i] = 1.0;
  for (std::size_t k = 0; k < m_; ++k) {
    if (outOfTime()) return false;
    std::size_t piv = k;
    for (std::size_t i = k + 1; i < m_; ++i)
      if (std::abs(bmat[i * m_ + k]) > std::abs(bmat[piv * m_ + k])) piv = i;
    if (std::abs(bmat[piv * m_ + k]) <= tol::kPivotEps) return false;
    if (piv != k) {
      for (std::size_t c = 0; c < m_; ++c) {
        std::swap(bmat[piv * m_ + c], bmat[k * m_ + c]);
        std::swap(binv_[piv * m_ + c], binv_[k * m_ + c]);
      }
    }
    const double inv = 1.0 / bmat[k * m_ + k];
    for (std::size_t c = 0; c < m_; ++c) {
      bmat[k * m_ + c] *= inv;
      binv_[k * m_ + c] *= inv;
    }
    for (std::size_t i = 0; i < m_; ++i) {
      if (i == k) continue;
      const double f = bmat[i * m_ + k];
      if (f == 0.0) continue;
      for (std::size_t c = 0; c < m_; ++c) {
        bmat[i * m_ + c] -= f * bmat[k * m_ + c];
        binv_[i * m_ + c] -= f * binv_[k * m_ + c];
      }
    }
  }
  ++refactorizations_;
  basisValid_ = true;
  return true;
}

void RevisedSimplexBackend::computeBasicValues() {
  // x_B = Binv (b - N x_N), nonbasics at their state's bound.
  work_.assign(rhs_.begin(), rhs_.end());
  for (std::size_t j = 0; j < n_ + m_; ++j) {
    if (state_[j] == VarState::Basic) continue;
    const double v = (state_[j] == VarState::AtUpper) ? hi_[j] : lo_[j];
    if (v == 0.0) continue;
    if (j < n_) {
      for (std::size_t k = colPtr_[j]; k < colPtr_[j + 1]; ++k)
        work_[static_cast<std::size_t>(rowIdx_[k])] -= colVal_[k] * v;
    } else {
      work_[j - n_] -= v;
    }
  }
  xb_.assign(m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    const double* row = binv_.data() + i * m_;
    double acc = 0.0;
    for (std::size_t k = 0; k < m_; ++k) acc += row[k] * work_[k];
    xb_[i] = acc;
  }
}

void RevisedSimplexBackend::computeDuals() {
  // Reduced costs for every column from scratch: y = c_B Binv, then
  // d_j = c_j - y A_j. Called after every (re)factorization; between them
  // the main loop maintains d_ incrementally in O(nnz) per pivot instead of
  // paying this O(m^2) each iteration.
  y_.assign(m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    const double cb = cost_[static_cast<std::size_t>(basic_[i])];
    if (cb == 0.0) continue;
    const double* row = binv_.data() + i * m_;
    for (std::size_t k = 0; k < m_; ++k) y_[k] += cb * row[k];
  }
  const std::size_t total = n_ + m_;
  d_.resize(total);
  for (std::size_t j = 0; j < total; ++j)
    d_[j] = state_[j] == VarState::Basic ? 0.0
                                         : cost_[j] - columnDot(y_, j);
}

void RevisedSimplexBackend::coldStart() {
  // All-slack basis (Binv = I); nonbasic structurals placed by objective
  // sign, which makes the basis dual feasible with y = 0: at lower the
  // reduced cost c_j <= 0, at upper c_j > 0. No phase 1 is ever needed.
  for (std::size_t j = 0; j < n_; ++j)
    state_[j] = cost_[j] > 0.0 ? VarState::AtUpper : VarState::AtLower;
  for (std::size_t i = 0; i < m_; ++i) {
    basic_[i] = static_cast<std::int32_t>(n_ + i);
    state_[n_ + i] = VarState::Basic;
  }
  binv_.assign(m_ * m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) binv_[i * m_ + i] = 1.0;
  basisValid_ = true;
}

bool RevisedSimplexBackend::loadBasis(const LpBasis& warm) {
  const std::size_t total = n_ + m_;
  if (warm.basicOf.size() != m_ || warm.atUpper.size() != total) return false;
  std::vector<std::uint8_t> isBasic(total, 0);
  for (const std::int32_t c : warm.basicOf) {
    if (c < 0 || static_cast<std::size_t>(c) >= total) return false;
    if (isBasic[static_cast<std::size_t>(c)] != 0) return false;
    isBasic[static_cast<std::size_t>(c)] = 1;
  }
  // A nonbasic column may not sit at an infinite bound (one-sided slacks).
  for (std::size_t j = 0; j < total; ++j) {
    if (isBasic[j] != 0) continue;
    if (warm.atUpper[j] != 0 ? !finiteUpper(hiBase_[j])
                             : !finiteLower(loBase_[j]))
      return false;
  }

  // Continuation fast path: the depth-first x=1 child warm-starts from the
  // basis this engine just produced — skip the O(m^3) refactorization.
  bool same = basisValid_;
  for (std::size_t i = 0; same && i < m_; ++i)
    same = basic_[i] == warm.basicOf[i];
  for (std::size_t j = 0; same && j < total; ++j) {
    if (isBasic[j] != 0) continue;
    same = (state_[j] == VarState::AtUpper) == (warm.atUpper[j] != 0);
  }
  if (!same) {
    basic_.assign(warm.basicOf.begin(), warm.basicOf.end());
    for (std::size_t j = 0; j < total; ++j)
      state_[j] = isBasic[j] != 0
                      ? VarState::Basic
                      : (warm.atUpper[j] != 0 ? VarState::AtUpper
                                              : VarState::AtLower);
    if (!refactorize()) {
      basisValid_ = false;
      return false;
    }
  }

  // Dual-feasibility repair. Bound tightening alone cannot break dual
  // feasibility, so for a basis produced by this engine this is a no-op;
  // a foreign basis gets its nonbasics bound-flipped where the reduced-cost
  // sign demands it, or is rejected when the needed bound is infinite.
  y_.assign(m_, 0.0);
  for (std::size_t i = 0; i < m_; ++i) {
    const double cb = cost_[static_cast<std::size_t>(basic_[i])];
    if (cb == 0.0) continue;
    const double* row = binv_.data() + i * m_;
    for (std::size_t k = 0; k < m_; ++k) y_[k] += cb * row[k];
  }
  for (std::size_t j = 0; j < total; ++j) {
    if (state_[j] == VarState::Basic) continue;
    if (hi_[j] - lo_[j] <= tol::kFeasEps) continue;  // fixed: no dual constraint
    const double d = cost_[j] - columnDot(y_, j);
    if (state_[j] == VarState::AtLower && d > tol::kFeasEps) {
      if (!finiteUpper(hi_[j])) return false;
      state_[j] = VarState::AtUpper;
    } else if (state_[j] == VarState::AtUpper && d < -tol::kFeasEps) {
      if (!finiteLower(lo_[j])) return false;
      state_[j] = VarState::AtLower;
    }
  }
  return true;
}

LpResult RevisedSimplexBackend::solve(const Fixing* fix, const LpBasis* warm,
                                      LpBasis* basisOut,
                                      support::Deadline deadline) {
  assert(model_ != nullptr && "bind() must precede solve()");
  const std::size_t total = n_ + m_;

  // Per-solve bounds: branching fixes a binary by collapsing its box.
  lo_.assign(loBase_.begin(), loBase_.end());
  hi_.assign(hiBase_.begin(), hiBase_.end());
  if (fix != nullptr) {
    for (std::size_t j = 0; j < n_ && j < fix->size(); ++j) {
      if ((*fix)[j] == 0) hi_[j] = 0.0;
      else if ((*fix)[j] == 1) lo_[j] = 1.0;
    }
  }

  deadline_ = deadline;
  LpResult res;
  if (basisOut != nullptr) *basisOut = LpBasis{};
  if (opts_.warmStart && warm != nullptr && !warm->empty() &&
      loadBasis(*warm)) {
    res.warmStarted = true;
  } else {
    coldStart();
  }
  if (deadline.expired()) {  // e.g. fired during a warm-start refactorization
    res.status = LpStatus::TimeLimit;
    return res;
  }

  const auto extract = [&] {
    res.x.assign(n_, 0.0);
    for (std::size_t j = 0; j < n_; ++j) {
      if (state_[j] == VarState::AtUpper) res.x[j] = hi_[j];
      else if (state_[j] == VarState::AtLower) res.x[j] = lo_[j];
    }
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t col = static_cast<std::size_t>(basic_[i]);
      if (col < n_) res.x[col] = xb_[i];
    }
    res.objective = model_->evaluate(res.x);
  };
  // A failed refactorization is a timeout when the deadline cut it short,
  // and a numerical give-up otherwise.
  const auto refactorFailed = [&] {
    res.status = deadline.expired() ? LpStatus::TimeLimit
                                    : LpStatus::IterationLimit;
    extract();
    return res;
  };

  computeBasicValues();
  computeDuals();
  int degenerateRun = 0;
  int sinceRefactor = 0;
  bool justRefactored = true;  // cold/warm start is exact by construction
  while (true) {
    // Polled every pivot: one pivot costs O(m^2) on the dense inverse, so
    // any coarser stride overshoots the budget on large models.
    if (deadline.expired()) {
      res.status = LpStatus::TimeLimit;
      extract();
      return res;
    }

    // Leaving-variable selection: most-violated basic bound, or the smallest
    // basic column index once Bland's rule is engaged.
    const bool bland = degenerateRun >= tol::kDegenerateRunLimit;
    std::size_t r = kNoRow;
    double bestViol = tol::kFeasEps;
    std::int32_t blandBest = std::numeric_limits<std::int32_t>::max();
    int sigma = 0;
    for (std::size_t i = 0; i < m_; ++i) {
      const std::size_t col = static_cast<std::size_t>(basic_[i]);
      double viol = 0.0;
      int dir = 0;
      if (xb_[i] < lo_[col] - tol::kFeasEps) {
        viol = lo_[col] - xb_[i];
        dir = +1;
      } else if (xb_[i] > hi_[col] + tol::kFeasEps) {
        viol = xb_[i] - hi_[col];
        dir = -1;
      } else {
        continue;
      }
      if (bland ? basic_[i] < blandBest : viol > bestViol) {
        r = i;
        sigma = dir;
        bestViol = viol;
        blandBest = basic_[i];
      }
    }

    if (r == kNoRow) {
      // Primal feasible and (by invariant) dual feasible: optimal. Verify the
      // basis numerically before trusting it.
      if (!justRefactored) {
        std::vector<double> val(total);
        for (std::size_t j = 0; j < total; ++j)
          val[j] = (state_[j] == VarState::AtUpper) ? hi_[j] : lo_[j];
        for (std::size_t i = 0; i < m_; ++i)
          val[static_cast<std::size_t>(basic_[i])] = xb_[i];
        work_.assign(rhs_.begin(), rhs_.end());
        for (std::size_t j = 0; j < n_; ++j) {
          if (val[j] == 0.0) continue;
          for (std::size_t k = colPtr_[j]; k < colPtr_[j + 1]; ++k)
            work_[static_cast<std::size_t>(rowIdx_[k])] -= colVal_[k] * val[j];
        }
        double resid = 0.0;
        for (std::size_t i = 0; i < m_; ++i)
          resid = std::max(resid, std::abs(work_[i] - val[n_ + i]));
        if (resid > tol::kResidualEps) {
          if (!refactorize()) return refactorFailed();
          computeBasicValues();
          computeDuals();
          justRefactored = true;
          sinceRefactor = 0;
          continue;
        }
      }
      res.status = LpStatus::Optimal;
      extract();
      if (basisOut != nullptr) {
        basisOut->basicOf.assign(basic_.begin(), basic_.end());
        basisOut->atUpper.assign(total, 0);
        for (std::size_t j = 0; j < total; ++j)
          if (state_[j] == VarState::AtUpper) basisOut->atUpper[j] = 1;
      }
      return res;
    }

    if (res.pivots >= opts_.maxIterations) {
      res.status = LpStatus::IterationLimit;
      extract();
      return res;
    }

    // Pivot row of the inverse; reduced costs come from the incrementally
    // maintained d_ vector rather than an O(m^2) y = c_B Binv each round.
    rho_.assign(binv_.begin() + static_cast<std::ptrdiff_t>(r * m_),
                binv_.begin() + static_cast<std::ptrdiff_t>((r + 1) * m_));
    alpha_.assign(total, 0.0);

    // Dual ratio test. The leaving variable moves toward its violated bound
    // (sigma = +1 below lower, -1 above upper); eligible entering columns
    // are the nonbasics whose step helps, and the minimum reduced-cost
    // ratio keeps every nonbasic on its dual-feasible side after the pivot.
    std::size_t q = kNoRow;
    double bestRatio = std::numeric_limits<double>::infinity();
    double bestAlphaAbs = 0.0;
    for (std::size_t j = 0; j < total; ++j) {
      if (state_[j] == VarState::Basic) continue;
      if (hi_[j] - lo_[j] <= tol::kFeasEps) continue;  // fixed: cannot move
      const double alpha = columnDot(rho_, j);
      alpha_[j] = alpha;
      const double sa = sigma * alpha;
      const bool eligible = state_[j] == VarState::AtLower ? sa < -opts_.eps
                                                           : sa > opts_.eps;
      if (!eligible) continue;
      const double ratio = std::max(d_[j] / sa, 0.0);
      const bool better =
          bland ? ratio < bestRatio
                : (ratio < bestRatio - opts_.eps ||
                   (ratio <= bestRatio + opts_.eps &&
                    std::abs(alpha) > bestAlphaAbs));
      if (better) {
        q = j;
        bestRatio = std::min(ratio, bestRatio);
        bestAlphaAbs = std::abs(alpha);
      }
    }
    if (q == kNoRow) {
      // Dual unbounded: no entering column can repair the violated bound.
      // Refactorize once first so drift in the inverse cannot manufacture a
      // spurious infeasibility verdict.
      if (!justRefactored) {
        if (refactorize()) {
          computeBasicValues();
          computeDuals();
          justRefactored = true;
          sinceRefactor = 0;
          continue;
        }
        if (deadline.expired()) return refactorFailed();
      }
      res.status = LpStatus::Infeasible;
      return res;
    }

    // Pivot column through the inverse, then the product-form update.
    eta_.assign(m_, 0.0);
    if (q < n_) {
      for (std::size_t k = colPtr_[q]; k < colPtr_[q + 1]; ++k) {
        const std::size_t rr = static_cast<std::size_t>(rowIdx_[k]);
        const double v = colVal_[k];
        for (std::size_t i = 0; i < m_; ++i) eta_[i] += binv_[i * m_ + rr] * v;
      }
    } else {
      const std::size_t rr = q - n_;
      for (std::size_t i = 0; i < m_; ++i) eta_[i] = binv_[i * m_ + rr];
    }
    const double pivot = eta_[r];
    if (std::abs(pivot) <= tol::kPivotEps) {
      // Numerically hopeless pivot: rebuild the inverse once and retry; if
      // it persists, give up rather than divide by noise.
      if (justRefactored || !refactorize()) return refactorFailed();
      computeBasicValues();
      computeDuals();
      justRefactored = true;
      sinceRefactor = 0;
      continue;
    }

    // Incremental primal update: the entering column moves off its bound by
    // delta, chosen so the leaving basic lands exactly on its violated
    // bound; the other basics follow x_B -= delta * eta. O(m) instead of a
    // full x_B = Binv (b - N x_N) recompute.
    {
      const std::size_t leavingCol = static_cast<std::size_t>(basic_[r]);
      const double target = sigma > 0 ? lo_[leavingCol] : hi_[leavingCol];
      const double delta = (xb_[r] - target) / pivot;
      const double enterFrom =
          state_[q] == VarState::AtUpper ? hi_[q] : lo_[q];
      for (std::size_t i = 0; i < m_; ++i) {
        if (i == r) continue;
        if (eta_[i] != 0.0) xb_[i] -= delta * eta_[i];
      }
      xb_[r] = enterFrom + delta;
    }
    // Incremental dual update over the alphas saved by the pricing scan:
    // d'_j = d_j - (d_q / alpha_q) * alpha_j, which zeroes the entering
    // column and puts the leaving one (alpha = 1) at -g.
    {
      const double g = d_[q] / alpha_[q];
      for (std::size_t j = 0; j < total; ++j) {
        if (state_[j] == VarState::Basic || alpha_[j] == 0.0) continue;
        d_[j] -= g * alpha_[j];
      }
      d_[static_cast<std::size_t>(basic_[r])] = -g;
      d_[q] = 0.0;
    }

    const double inv = 1.0 / pivot;
    double* prow = binv_.data() + r * m_;
    for (std::size_t k = 0; k < m_; ++k) prow[k] *= inv;
    for (std::size_t i = 0; i < m_; ++i) {
      if (i == r) continue;
      const double f = eta_[i];
      if (f == 0.0) continue;
      double* row = binv_.data() + i * m_;
      for (std::size_t k = 0; k < m_; ++k) row[k] -= f * prow[k];
    }

    const std::size_t leaving = static_cast<std::size_t>(basic_[r]);
    state_[leaving] = sigma > 0 ? VarState::AtLower : VarState::AtUpper;
    basic_[r] = static_cast<std::int32_t>(q);
    state_[q] = VarState::Basic;
    ++res.pivots;
    justRefactored = false;
    degenerateRun = bestRatio <= opts_.eps ? degenerateRun + 1 : 0;
    if (++sinceRefactor >= tol::kRefactorInterval) {
      if (!refactorize()) return refactorFailed();
      computeBasicValues();
      computeDuals();
      justRefactored = true;
      sinceRefactor = 0;
    }
  }
}

}  // namespace cpr::ilp
