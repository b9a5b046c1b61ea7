#include "ilp/model.h"

namespace cpr::ilp {

Index Model::addBinary(double objCoef) {
  obj_.push_back(objCoef);
  return static_cast<Index>(obj_.size() - 1);
}

void Model::addConstraint(std::vector<Term> terms, Sense sense, double rhs) {
  rows_.push_back(Constraint{std::move(terms), sense, rhs});
}

double Model::evaluate(const std::vector<double>& x) const {
  double v = 0.0;
  for (std::size_t i = 0; i < obj_.size(); ++i) v += obj_[i] * x[i];
  return v;
}

bool Model::feasible(const std::vector<double>& x, double eps) const {
  for (const Constraint& c : rows_) {
    double lhs = 0.0;
    for (const Term& t : c.terms) lhs += t.coef * x[static_cast<std::size_t>(t.var)];
    switch (c.sense) {
      case Sense::LessEqual:
        if (lhs > c.rhs + eps) return false;
        break;
      case Sense::Equal:
        if (lhs > c.rhs + eps || lhs < c.rhs - eps) return false;
        break;
      case Sense::GreaterEqual:
        if (lhs < c.rhs - eps) return false;
        break;
    }
  }
  return true;
}

}  // namespace cpr::ilp
