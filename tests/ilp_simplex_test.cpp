#include <gtest/gtest.h>

#include <random>

#include "dense_simplex.h"
#include "ilp/model.h"

namespace cpr::ilp {
namespace {

TEST(Simplex, UnconstrainedBinariesSaturate) {
  Model m;
  m.addBinary(3.0);
  m.addBinary(-2.0);
  const LpResult r = solveLp(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-7);
  EXPECT_NEAR(r.x[0], 1.0, 1e-7);
  EXPECT_NEAR(r.x[1], 0.0, 1e-7);
}

TEST(Simplex, KnapsackRelaxationIsFractional) {
  // max 3a + 2b st 2a + 2b <= 3, 0<=x<=1 → a=1, b=0.5, obj 4.
  Model m;
  const Index a = m.addBinary(3.0);
  const Index b = m.addBinary(2.0);
  m.addConstraint({{a, 2.0}, {b, 2.0}}, Sense::LessEqual, 3.0);
  const LpResult r = solveLp(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, 4.0, 1e-7);
  EXPECT_NEAR(r.x[a], 1.0, 1e-7);
  EXPECT_NEAR(r.x[b], 0.5, 1e-7);
}

TEST(Simplex, EqualityConstraint) {
  // max a + 4b st a + b = 1 → b=1.
  Model m;
  const Index a = m.addBinary(1.0);
  const Index b = m.addBinary(4.0);
  m.addConstraint({{a, 1.0}, {b, 1.0}}, Sense::Equal, 1.0);
  const LpResult r = solveLp(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, 4.0, 1e-7);
  EXPECT_NEAR(r.x[b], 1.0, 1e-7);
}

TEST(Simplex, GreaterEqualConstraint) {
  // max -a - 2b st a + b >= 1 → a=1 (cheaper), obj -1.
  Model m;
  const Index a = m.addBinary(-1.0);
  const Index b = m.addBinary(-2.0);
  m.addConstraint({{a, 1.0}, {b, 1.0}}, Sense::GreaterEqual, 1.0);
  const LpResult r = solveLp(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, -1.0, 1e-7);
}

TEST(Simplex, DetectsInfeasibility) {
  Model m;
  const Index a = m.addBinary(1.0);
  m.addConstraint({{a, 1.0}}, Sense::GreaterEqual, 2.0);  // a <= 1 < 2
  EXPECT_EQ(solveLp(m).status, LpStatus::Infeasible);
}

TEST(Simplex, ConflictingEqualitiesInfeasible) {
  Model m;
  const Index a = m.addBinary(1.0);
  const Index b = m.addBinary(1.0);
  m.addConstraint({{a, 1.0}, {b, 1.0}}, Sense::Equal, 1.0);
  m.addConstraint({{a, 1.0}, {b, 1.0}}, Sense::Equal, 2.0);
  EXPECT_EQ(solveLp(m).status, LpStatus::Infeasible);
}

TEST(Simplex, FixingSubstitutesVariables) {
  Model m;
  const Index a = m.addBinary(3.0);
  const Index b = m.addBinary(2.0);
  m.addConstraint({{a, 1.0}, {b, 1.0}}, Sense::LessEqual, 1.0);
  Fixing fix(2, -1);
  fix[static_cast<std::size_t>(a)] = 0;
  const LpResult r = solveLp(m, {}, &fix);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.x[a], 0.0, 1e-9);
  EXPECT_NEAR(r.x[b], 1.0, 1e-7);
  EXPECT_NEAR(r.objective, 2.0, 1e-7);
}

TEST(Simplex, FixingCanCreateInfeasibility) {
  Model m;
  const Index a = m.addBinary(1.0);
  const Index b = m.addBinary(1.0);
  m.addConstraint({{a, 1.0}, {b, 1.0}}, Sense::LessEqual, 1.0);
  Fixing fix(2, 1);  // both fixed to 1: 2 <= 1 fails
  EXPECT_EQ(solveLp(m, {}, &fix).status, LpStatus::Infeasible);
}

TEST(Simplex, SetPartitioningRelaxationIsTight) {
  // Pins {0,1}; intervals a(covers 0), b(covers 1), c(covers both);
  // conflicts force a,b,c pairwise exclusive → only c works: x_c = 1.
  Model m;
  const Index a = m.addBinary(1.0);
  const Index b = m.addBinary(1.0);
  const Index c = m.addBinary(1.5);
  m.addConstraint({{a, 1.0}, {c, 1.0}}, Sense::Equal, 1.0);
  m.addConstraint({{b, 1.0}, {c, 1.0}}, Sense::Equal, 1.0);
  m.addConstraint({{a, 1.0}, {b, 1.0}, {c, 1.0}}, Sense::LessEqual, 1.0);
  const LpResult r = solveLp(m);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.x[c], 1.0, 1e-7);
  EXPECT_NEAR(r.objective, 1.5, 1e-7);
}

/// Property sweep: random small LPs; simplex objective must (a) be
/// achieved by a feasible x, and (b) dominate every feasible binary point
/// (the relaxation upper-bounds the ILP).
class SimplexProperty : public ::testing::TestWithParam<unsigned> {};

TEST_P(SimplexProperty, BoundsRandomBinaryPoints) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> nDist(2, 6);
  std::uniform_int_distribution<int> cDist(-4, 6);
  std::uniform_int_distribution<int> senseDist(0, 2);

  for (int round = 0; round < 40; ++round) {
    Model m;
    const int n = nDist(rng);
    for (int v = 0; v < n; ++v) m.addBinary(cDist(rng));
    const int rows = nDist(rng) - 1;
    for (int r = 0; r < rows; ++r) {
      std::vector<Term> terms;
      for (Index v = 0; v < n; ++v) {
        const int coef = cDist(rng) % 3;
        if (coef != 0) terms.push_back({v, static_cast<double>(coef)});
      }
      if (terms.empty()) continue;
      // Keep rows satisfiable at x=0 to guarantee LP feasibility.
      m.addConstraint(std::move(terms),
                      senseDist(rng) == 0 ? Sense::LessEqual : Sense::LessEqual,
                      static_cast<double>(std::abs(cDist(rng))));
    }
    const LpResult lp = solveLp(m);
    ASSERT_EQ(lp.status, LpStatus::Optimal);
    ASSERT_TRUE(m.feasible(lp.x, 1e-6));
    EXPECT_NEAR(lp.objective, m.evaluate(lp.x), 1e-6);
    // Enumerate all binary points; none may beat the relaxation.
    for (int mask = 0; mask < (1 << n); ++mask) {
      std::vector<double> x(static_cast<std::size_t>(n));
      for (int v = 0; v < n; ++v) x[static_cast<std::size_t>(v)] = (mask >> v) & 1;
      if (m.feasible(x)) {
        EXPECT_LE(m.evaluate(x), lp.objective + 1e-6);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexProperty,
                         ::testing::Values(11u, 12u, 13u, 14u));

}  // namespace
}  // namespace cpr::ilp
