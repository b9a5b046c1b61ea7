/// \file model.h
/// A small linear-programming / binary-ILP model container.
///
/// This module is the repository's stand-in for the commercial ILP solver the
/// paper uses for Formula (1): variables are declared, linear constraints
/// added, and the model handed to `solveBinaryIlp` (exact branch & bound
/// over LP relaxations). Only what the paper's formulation
/// needs is supported: maximization, binary decision variables, and sparse
/// linear constraints with <=, =, >= senses.
#pragma once

#include <string>
#include <vector>

#include "geom/types.h"

namespace cpr::ilp {

using geom::Index;

enum class Sense { LessEqual, Equal, GreaterEqual };

/// One nonzero of a constraint row.
struct Term {
  Index var = 0;
  double coef = 0.0;
};

struct Constraint {
  std::vector<Term> terms;
  Sense sense = Sense::LessEqual;
  double rhs = 0.0;
};

/// Sparse maximization model over binary variables.
class Model {
 public:
  /// Adds a binary variable with the given objective coefficient; returns its
  /// index.
  Index addBinary(double objCoef, std::string name = {});

  /// Adds `sum(terms) sense rhs`.
  void addConstraint(std::vector<Term> terms, Sense sense, double rhs);

  [[nodiscard]] Index numVars() const { return static_cast<Index>(obj_.size()); }
  [[nodiscard]] Index numConstraints() const {
    return static_cast<Index>(rows_.size());
  }
  [[nodiscard]] const std::vector<double>& objective() const { return obj_; }
  [[nodiscard]] const std::vector<Constraint>& constraints() const { return rows_; }
  [[nodiscard]] const std::string& varName(Index v) const {
    return names_[static_cast<std::size_t>(v)];
  }

  /// Objective value of an assignment.
  [[nodiscard]] double evaluate(const std::vector<double>& x) const;

  /// True when `x` (interpreted with tolerance `eps`) satisfies every
  /// constraint.
  [[nodiscard]] bool feasible(const std::vector<double>& x,
                              double eps = 1e-6) const;

 private:
  std::vector<double> obj_;
  std::vector<std::string> names_;
  std::vector<Constraint> rows_;
};

}  // namespace cpr::ilp
