/// Golden LP suite for the `LpBackend` seam (ilp/lp_backend.h): the
/// revised simplex (the production engine) and the test-only dense
/// two-phase reference must agree on status and objective across
/// known-optimum, infeasible, degenerate, and randomly generated
/// relaxations, with and without branch & bound fixings; and warm-started
/// re-solves must match cold solves exactly while doing no more pivot work.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <random>
#include <string_view>
#include <vector>

#include "dense_simplex.h"
#include "ilp/branch_and_bound.h"
#include "ilp/lp_backend.h"
#include "ilp/model.h"
#include "ilp/revised_simplex.h"

namespace cpr::ilp {
namespace {

/// The two engines behind the seam, by the name each reports.
std::unique_ptr<LpBackend> engine(std::string_view name) {
  if (name == "dense") return std::make_unique<DenseSimplexBackend>();
  return std::make_unique<RevisedSimplexBackend>();
}

LpResult run(const Model& m, std::string_view backend,
             const Fixing* fix = nullptr) {
  const std::unique_ptr<LpBackend> be = engine(backend);
  be->bind(m, LpOptions{});
  return be->solve(fix);
}

TEST(LpBackendSeam, BothEnginesReportTheirNames) {
  EXPECT_EQ(engine("revised")->name(), "revised");
  EXPECT_EQ(engine("dense")->name(), "dense");
}

// ------------------------------------------------- golden suite ---------

class GoldenSuite : public ::testing::TestWithParam<const char*> {};

TEST_P(GoldenSuite, UnconstrainedBinariesSaturate) {
  Model m;
  m.addBinary(3.0);
  m.addBinary(-2.0);
  const LpResult r = run(m, GetParam());
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, 3.0, 1e-7);
  EXPECT_NEAR(r.x[0], 1.0, 1e-7);
  EXPECT_NEAR(r.x[1], 0.0, 1e-7);
}

TEST_P(GoldenSuite, KnapsackRelaxationIsFractional) {
  // max 3a + 2b st 2a + 2b <= 3, 0<=x<=1 → a=1, b=0.5, obj 4.
  Model m;
  const Index a = m.addBinary(3.0);
  const Index b = m.addBinary(2.0);
  m.addConstraint({{a, 2.0}, {b, 2.0}}, Sense::LessEqual, 3.0);
  const LpResult r = run(m, GetParam());
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, 4.0, 1e-7);
  EXPECT_NEAR(r.x[a], 1.0, 1e-7);
  EXPECT_NEAR(r.x[b], 0.5, 1e-7);
}

TEST_P(GoldenSuite, MixedSenseRows) {
  // max a + 4b - c st a + b = 1, b + c >= 1 → b=1, c=0, obj 4.
  Model m;
  const Index a = m.addBinary(1.0);
  const Index b = m.addBinary(4.0);
  const Index c = m.addBinary(-1.0);
  m.addConstraint({{a, 1.0}, {b, 1.0}}, Sense::Equal, 1.0);
  m.addConstraint({{b, 1.0}, {c, 1.0}}, Sense::GreaterEqual, 1.0);
  const LpResult r = run(m, GetParam());
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, 4.0, 1e-7);
  EXPECT_NEAR(r.x[b], 1.0, 1e-7);
}

TEST_P(GoldenSuite, SetPartitioningRelaxationIsTight) {
  Model m;
  const Index a = m.addBinary(1.0);
  const Index b = m.addBinary(1.0);
  const Index c = m.addBinary(1.5);
  m.addConstraint({{a, 1.0}, {c, 1.0}}, Sense::Equal, 1.0);
  m.addConstraint({{b, 1.0}, {c, 1.0}}, Sense::Equal, 1.0);
  m.addConstraint({{a, 1.0}, {b, 1.0}, {c, 1.0}}, Sense::LessEqual, 1.0);
  const LpResult r = run(m, GetParam());
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.x[c], 1.0, 1e-7);
  EXPECT_NEAR(r.objective, 1.5, 1e-7);
}

TEST_P(GoldenSuite, DegenerateTiesStillTerminate) {
  // Every pair conflicts and one partition row pins the sum: masses of
  // zero-length (degenerate) pivots; Bland's fallback must still land on
  // the unique optimum value 2.0 (pick the weight-2 variable).
  Model m;
  std::vector<Index> v;
  for (int i = 0; i < 6; ++i) v.push_back(m.addBinary(i == 3 ? 2.0 : 1.0));
  for (std::size_t i = 0; i < v.size(); ++i)
    for (std::size_t j = i + 1; j < v.size(); ++j)
      m.addConstraint({{v[i], 1.0}, {v[j], 1.0}}, Sense::LessEqual, 1.0);
  std::vector<Term> all;
  for (const Index x : v) all.push_back({x, 1.0});
  m.addConstraint(std::move(all), Sense::Equal, 1.0);
  const LpResult r = run(m, GetParam());
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.objective, 2.0, 1e-7);
}

TEST_P(GoldenSuite, DetectsInfeasibility) {
  Model m;
  const Index a = m.addBinary(1.0);
  m.addConstraint({{a, 1.0}}, Sense::GreaterEqual, 2.0);  // a <= 1 < 2
  EXPECT_EQ(run(m, GetParam()).status, LpStatus::Infeasible);
}

TEST_P(GoldenSuite, ConflictingEqualitiesInfeasible) {
  Model m;
  const Index a = m.addBinary(1.0);
  const Index b = m.addBinary(1.0);
  m.addConstraint({{a, 1.0}, {b, 1.0}}, Sense::Equal, 1.0);
  m.addConstraint({{a, 1.0}, {b, 1.0}}, Sense::Equal, 2.0);
  EXPECT_EQ(run(m, GetParam()).status, LpStatus::Infeasible);
}

TEST_P(GoldenSuite, FixingNarrowsTheFeasibleBox) {
  Model m;
  const Index a = m.addBinary(3.0);
  const Index b = m.addBinary(2.0);
  m.addConstraint({{a, 1.0}, {b, 1.0}}, Sense::LessEqual, 1.0);
  Fixing fix(2, -1);
  fix[static_cast<std::size_t>(a)] = 0;
  const LpResult r = run(m, GetParam(), &fix);
  ASSERT_EQ(r.status, LpStatus::Optimal);
  EXPECT_NEAR(r.x[a], 0.0, 1e-7);
  EXPECT_NEAR(r.x[b], 1.0, 1e-7);
  EXPECT_NEAR(r.objective, 2.0, 1e-7);
}

TEST_P(GoldenSuite, FixingCanCreateInfeasibility) {
  Model m;
  m.addBinary(1.0);
  m.addBinary(1.0);
  m.addConstraint({{0, 1.0}, {1, 1.0}}, Sense::LessEqual, 1.0);
  const Fixing fix(2, 1);  // both fixed to 1: 2 <= 1 fails
  EXPECT_EQ(run(m, GetParam(), &fix).status, LpStatus::Infeasible);
}

INSTANTIATE_TEST_SUITE_P(Engines, GoldenSuite,
                         ::testing::Values("dense", "revised"));

// ------------------------------------- cross-engine random sweep --------

class EngineAgreement : public ::testing::TestWithParam<unsigned> {};

TEST_P(EngineAgreement, StatusAndObjectiveMatchOnRandomModels) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> nDist(2, 6);
  std::uniform_int_distribution<int> cDist(-4, 6);
  std::uniform_int_distribution<int> senseDist(0, 5);
  std::uniform_int_distribution<int> fixDist(0, 9);

  for (int round = 0; round < 60; ++round) {
    Model m;
    const int n = nDist(rng);
    for (int v = 0; v < n; ++v) m.addBinary(cDist(rng));
    const int rows = nDist(rng);
    for (int r = 0; r < rows; ++r) {
      std::vector<Term> terms;
      for (Index v = 0; v < n; ++v) {
        const int coef = cDist(rng) % 3;
        if (coef != 0) terms.push_back({v, static_cast<double>(coef)});
      }
      if (terms.empty()) continue;
      // Mostly <=, sometimes = / >= so infeasible instances occur and both
      // engines must classify them identically.
      const int s = senseDist(rng);
      const Sense sense = s == 0   ? Sense::Equal
                          : s == 1 ? Sense::GreaterEqual
                                   : Sense::LessEqual;
      m.addConstraint(std::move(terms), sense,
                      static_cast<double>(cDist(rng) % 3));
    }
    Fixing fix(static_cast<std::size_t>(n), -1);
    bool anyFixed = false;
    for (int v = 0; v < n; ++v) {
      const int roll = fixDist(rng);
      if (roll < 2) {
        fix[static_cast<std::size_t>(v)] = static_cast<std::int8_t>(roll);
        anyFixed = true;
      }
    }
    const Fixing* fp = anyFixed ? &fix : nullptr;
    const LpResult dense = run(m, "dense", fp);
    const LpResult revised = run(m, "revised", fp);
    ASSERT_EQ(dense.status, revised.status)
        << "seed " << GetParam() << " round " << round;
    if (dense.status == LpStatus::Optimal) {
      EXPECT_NEAR(dense.objective, revised.objective, 1e-6)
          << "seed " << GetParam() << " round " << round;
      EXPECT_TRUE(m.feasible(revised.x, 1e-6));
      EXPECT_NEAR(revised.objective, m.evaluate(revised.x), 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineAgreement,
                         ::testing::Values(101u, 102u, 103u, 104u));

// ------------------------------------------------ warm starting ---------

TEST(LpBackendWarmStart, ChildResolveFromParentBasisMatchesColdSolve) {
  // A branch & bound dive in miniature: solve the root, then fix variables
  // one at a time, re-solving warm from the parent basis each step. Every
  // warm solve must match an independent cold solve of the same node and
  // never do more pivot work.
  Model m;
  const int n = 6;
  for (int v = 0; v < n; ++v) m.addBinary(1.0 + 0.5 * v);
  m.addConstraint({{0, 2.0}, {1, 2.0}, {2, 2.0}}, Sense::LessEqual, 3.0);
  m.addConstraint({{2, 1.0}, {3, 1.0}, {4, 1.0}}, Sense::LessEqual, 2.0);
  m.addConstraint({{1, 1.0}, {4, 1.0}, {5, 1.0}}, Sense::Equal, 1.0);

  RevisedSimplexBackend warmEngine;
  warmEngine.bind(m, LpOptions{});
  LpBasis parent;
  const LpResult root = warmEngine.solve(nullptr, nullptr, &parent, {});
  ASSERT_EQ(root.status, LpStatus::Optimal);
  EXPECT_FALSE(root.warmStarted);
  ASSERT_FALSE(parent.empty());

  Fixing fix(static_cast<std::size_t>(n), -1);
  const std::int8_t dive[n] = {1, 0, -1, 1, -1, 0};
  for (int v = 0; v < n; ++v) {
    if (dive[v] < 0) continue;
    fix[static_cast<std::size_t>(v)] = dive[v];
    LpBasis child;
    const LpResult warm = warmEngine.solve(&fix, &parent, &child, {});
    const LpResult cold = run(m, "revised", &fix);
    ASSERT_EQ(warm.status, cold.status) << "fixing var " << v;
    if (warm.status != LpStatus::Optimal) break;
    EXPECT_TRUE(warm.warmStarted) << "fixing var " << v;
    EXPECT_NEAR(warm.objective, cold.objective, 1e-7) << "fixing var " << v;
    EXPECT_LE(warm.pivots, cold.pivots) << "fixing var " << v;
    parent = child;
  }
}

TEST(LpBackendWarmStart, BnbWarmStartMatchesColdSearchAndSavesPivots) {
  // max over a knapsack with conflict rows: fractional at the root, so the
  // search branches. Warm and cold searches must agree exactly on the
  // optimum; warm must engage (warmSolves > 0) and do no more total pivots.
  // Even weights against an odd capacity keep the relaxation fractional at
  // every dive level, forcing a real search tree.
  Model m;
  const int n = 8;
  for (int v = 0; v < n; ++v) m.addBinary(1.0 + 0.01 * v);
  std::vector<Term> knap;
  for (Index v = 0; v < n; ++v) knap.push_back({v, 2.0});
  m.addConstraint(std::move(knap), Sense::LessEqual, 7.0);
  m.addConstraint({{0, 1.0}, {3, 1.0}}, Sense::LessEqual, 1.0);
  m.addConstraint({{1, 1.0}, {4, 1.0}, {7, 1.0}}, Sense::LessEqual, 1.0);

  const IlpOptions warmOpts;
  IlpOptions coldOpts = warmOpts;
  coldOpts.lp.warmStart = false;

  const IlpResult warm = solveBinaryIlp(m, warmOpts);
  const IlpResult cold = solveBinaryIlp(m, coldOpts);
  ASSERT_EQ(warm.status, IlpStatus::Optimal);
  ASSERT_EQ(cold.status, IlpStatus::Optimal);
  EXPECT_NEAR(warm.objective, cold.objective, 1e-9);
  EXPECT_GT(warm.nodesExplored, 1);
  EXPECT_GT(warm.lpWarmSolves, 0);
  EXPECT_EQ(cold.lpWarmSolves, 0);
  EXPECT_GT(cold.lpColdSolves, 0);
  EXPECT_LE(warm.lpPivots, cold.lpPivots);
}

// ------------------------------------------------ branch & bound --------

TEST(Bnb, MatchesBruteForceOnRandomModels) {
  std::mt19937 rng(777u);
  std::uniform_int_distribution<int> nDist(2, 6);
  std::uniform_int_distribution<int> cDist(-4, 6);

  for (int round = 0; round < 25; ++round) {
    Model m;
    const int n = nDist(rng);
    for (int v = 0; v < n; ++v) m.addBinary(cDist(rng));
    const int rows = nDist(rng);
    for (int r = 0; r < rows; ++r) {
      std::vector<Term> terms;
      for (Index v = 0; v < n; ++v) {
        const int coef = cDist(rng) % 3;
        if (coef != 0) terms.push_back({v, static_cast<double>(coef)});
      }
      if (terms.empty()) continue;
      m.addConstraint(std::move(terms), Sense::LessEqual,
                      static_cast<double>(std::abs(cDist(rng))));
    }

    double best = 0.0;  // x = 0 is feasible for these rows
    for (int mask = 0; mask < (1 << n); ++mask) {
      std::vector<double> x(static_cast<std::size_t>(n));
      for (int v = 0; v < n; ++v)
        x[static_cast<std::size_t>(v)] = (mask >> v) & 1;
      if (m.feasible(x)) best = std::max(best, m.evaluate(x));
    }

    const IlpResult r = solveBinaryIlp(m);
    ASSERT_EQ(r.status, IlpStatus::Optimal) << "round " << round;
    EXPECT_NEAR(r.objective, best, 1e-6) << "round " << round;
  }
}

}  // namespace
}  // namespace cpr::ilp
