/// \file ilp_edge_test.cpp
/// Edge cases for the LP/ILP substrate: degeneracy, redundant rows, unit
/// bound handling, and time limits.
#include <gtest/gtest.h>

#include <chrono>
#include <random>

#include "dense_simplex.h"
#include "ilp/branch_and_bound.h"

namespace cpr::ilp {
namespace {

TEST(SimplexEdge, HighlyDegenerateTiesDoNotCycle) {
  // Assignment-like LP where many bases share the same objective: the
  // anti-cycling fallback must still terminate at the optimum.
  Model m;
  constexpr int kN = 8;
  std::vector<Index> vars;
  for (int i = 0; i < kN; ++i) vars.push_back(m.addBinary(1.0));
  for (int i = 0; i < kN; ++i) {
    m.addConstraint({{vars[static_cast<std::size_t>(i)], 1.0},
                     {vars[static_cast<std::size_t>((i + 1) % kN)], 1.0}},
                    Sense::LessEqual, 1.0);
  }
  const LpResult r = solveLp(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, kN / 2.0, 1e-6);  // fractional 0.5s
}

TEST(SimplexEdge, RedundantEqualityRows) {
  Model m;
  const Index a = m.addBinary(2.0);
  const Index b = m.addBinary(1.0);
  m.addConstraint({{a, 1.0}, {b, 1.0}}, Sense::Equal, 1.0);
  m.addConstraint({{a, 1.0}, {b, 1.0}}, Sense::Equal, 1.0);  // duplicate
  m.addConstraint({{a, 2.0}, {b, 2.0}}, Sense::Equal, 2.0);  // scaled dup
  const LpResult r = solveLp(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-6);
  EXPECT_NEAR(r.x[a], 1.0, 1e-6);
}

TEST(SimplexEdge, AllNegativeObjectiveStaysAtZero) {
  Model m;
  m.addBinary(-1.0);
  m.addBinary(-2.0);
  m.addConstraint({{0, 1.0}, {1, 1.0}}, Sense::LessEqual, 2.0);
  const LpResult r = solveLp(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, 0.0, 1e-9);
}

TEST(SimplexEdge, ImplicitUnitBoundsMatchExplicitOnPartitioning) {
  // When every variable sits in an equality row with unit coefficients,
  // skipping the x<=1 rows must not change the optimum.
  std::mt19937 rng(99);
  std::uniform_int_distribution<int> c(1, 9);
  for (int round = 0; round < 20; ++round) {
    Model m;
    for (int v = 0; v < 6; ++v) m.addBinary(c(rng));
    m.addConstraint({{0, 1.0}, {1, 1.0}, {2, 1.0}}, Sense::Equal, 1.0);
    m.addConstraint({{3, 1.0}, {4, 1.0}, {5, 1.0}}, Sense::Equal, 1.0);
    m.addConstraint({{1, 1.0}, {4, 1.0}}, Sense::LessEqual, 1.0);
    DenseLpOptions with;
    DenseLpOptions without;
    without.implicitUnitBounds = true;
    const LpResult a = solveLp(m, with);
    const LpResult b = solveLp(m, without);
    ASSERT_EQ(a.status, LpStatus::Optimal);
    ASSERT_EQ(b.status, LpStatus::Optimal);
    EXPECT_NEAR(a.objective, b.objective, 1e-6) << "round " << round;
  }
}

TEST(SimplexEdge, AllVariablesFixed) {
  Model m;
  const Index a = m.addBinary(3.0);
  const Index b = m.addBinary(2.0);
  m.addConstraint({{a, 1.0}, {b, 1.0}}, Sense::LessEqual, 2.0);
  Fixing fix{1, 1};
  const LpResult r = solveLp(m, {}, &fix);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, 5.0, 1e-9);
}

TEST(BnbEdge, TimeLimitReturnsBestEffort) {
  // A dense packing instance with an immediate incumbent; a zero-ish time
  // budget must stop the search and report TimeLimit.
  Model m;
  std::mt19937 rng(5);
  std::uniform_int_distribution<int> c(1, 9);
  for (int v = 0; v < 26; ++v) m.addBinary(c(rng));
  for (int r = 0; r < 26; ++r) {
    std::vector<Term> terms;
    for (Index v = 0; v < 26; ++v) {
      if ((r + v) % 3 == 0) terms.push_back({v, 1.0});
    }
    m.addConstraint(std::move(terms), Sense::LessEqual, 2.0);
  }
  IlpOptions opts;
  opts.deadline = support::Deadline::after(0.0);
  const IlpResult r = solveBinaryIlp(m, opts);
  EXPECT_EQ(r.status, IlpStatus::TimeLimit);
}

TEST(BnbEdge, LargeModelReturnsCloseToItsDeadline) {
  // A packing LP with thousands of rows: every pivot of the revised engine
  // costs O(m^2) on its dense inverse (milliseconds here), and so does each
  // basis position of a refactorization. The solve must notice an expired
  // deadline within a pivot or two, not after a stride of hundreds of them.
  constexpr int kVars = 4000;
  constexpr int kRows = 4000;
  Model m;
  std::mt19937 rng(11);
  std::uniform_real_distribution<double> profit(1.0, 2.0);
  std::uniform_int_distribution<Index> pick(0, kVars - 1);
  for (int v = 0; v < kVars; ++v) m.addBinary(profit(rng));
  for (int r = 0; r < kRows; ++r) {
    std::vector<Term> terms;
    for (int k = 0; k < 4; ++k) terms.push_back({pick(rng), 1.0});
    m.addConstraint(std::move(terms), Sense::LessEqual, 1.0);
  }
  constexpr double kBudget = 0.25;
  IlpOptions opts;
  const auto t0 = std::chrono::steady_clock::now();
  opts.deadline = support::Deadline::after(kBudget);
  const IlpResult r = solveBinaryIlp(m, opts);
  const double took = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
  EXPECT_EQ(r.status, IlpStatus::TimeLimit);
  EXPECT_LT(took, 2 * kBudget) << "overran its deadline";
}

TEST(BnbEdge, EmptyModelIsTriviallyOptimal) {
  Model m;
  const IlpResult r = solveBinaryIlp(m);
  EXPECT_EQ(r.status, IlpStatus::Optimal);
  EXPECT_NEAR(r.objective, 0.0, 1e-12);
}

TEST(BnbEdge, SingleVariableBranches) {
  Model m;
  const Index a = m.addBinary(5.0);
  m.addConstraint({{a, 2.0}}, Sense::LessEqual, 1.0);  // forces a = 0
  const IlpResult r = solveBinaryIlp(m);
  ASSERT_EQ(r.status, IlpStatus::Optimal);
  EXPECT_NEAR(r.objective, 0.0, 1e-9);
  EXPECT_NEAR(r.x[a], 0.0, 1e-9);
}

}  // namespace
}  // namespace cpr::ilp
