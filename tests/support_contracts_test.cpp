/// Exercises the contract macros of support/contracts.h across both build
/// flavors, and the promise that a violated contract is Status-returning at
/// the non-throwing Solver::trySolve panel boundary.
///
/// Build-flavor matrix (see the contracts.h header comment):
///   - without NDEBUG: CPR_CHECK and CPR_DCHECK abort with the expression
///     and file:line (death tests below);
///   - with NDEBUG: CPR_DCHECK compiles to a type-checked no-op (the
///     side-effect counter test) and CPR_CHECK throws ContractViolation,
///     which trySolve converts to StatusCode::Failed.
#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <utility>

#include "core/panel_kernel.h"
#include "core/solver.h"
#include "obs/collector.h"
#include "support/contracts.h"
#include "support/deadline.h"
#include "support/status.h"

namespace {

using cpr::support::ContractViolation;

TEST(Contracts, PassingChecksAreQuiet) {
  CPR_CHECK(2 + 2 == 4);
  CPR_DCHECK(1 < 2);
  SUCCEED();
}

TEST(ContractsDeathTest, CheckFailureReportsExpressionAndLocation) {
#if defined(NDEBUG)
  try {
    CPR_CHECK(2 + 2 == 5);
    FAIL() << "CPR_CHECK(false) must not fall through";
  } catch (const ContractViolation& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("CPR_CHECK"), std::string::npos) << what;
    EXPECT_NE(what.find("2 + 2 == 5"), std::string::npos) << what;
    EXPECT_NE(what.find("support_contracts_test"), std::string::npos) << what;
  }
#else
  EXPECT_DEATH(CPR_CHECK(2 + 2 == 5), "CPR_CHECK failed: 2 \\+ 2 == 5");
#endif
}

TEST(ContractsDeathTest, DcheckFailureIsFatalInDebugBuilds) {
#if defined(NDEBUG)
  GTEST_SKIP() << "CPR_DCHECK is compiled out under NDEBUG";
#else
  EXPECT_DEATH(CPR_DCHECK(1 == 2), "CPR_DCHECK failed: 1 == 2");
#endif
}

TEST(Contracts, DcheckIsStrippedButStillTypeCheckedUnderNdebug) {
  int evaluations = 0;
  const auto bump = [&evaluations]() {
    ++evaluations;
    return true;
  };
  CPR_DCHECK(bump());
#if defined(NDEBUG)
  // The expression must stay a real, type-checked expression (so stripped
  // contracts cannot rot) yet generate no evaluation.
  EXPECT_EQ(evaluations, 0);
#else
  EXPECT_EQ(evaluations, 1);
#endif
}

TEST(ContractsDeathTest, KernelCsrIndexOutOfRangeIsCaughtInDebugBuilds) {
#if defined(NDEBUG)
  GTEST_SKIP() << "CPR_DCHECK bounds guards are compiled out under NDEBUG";
#else
  // An empty instance finishes to a kernel with zero pins; any candidate
  // lookup is out of range and must trip the CSR bounds contract.
  const cpr::core::PanelKernel k =
      cpr::core::PanelKernelBuilder(cpr::core::ProfitModel::SqrtSpan)
          .finish();
  ASSERT_EQ(k.numPins(), 0u);
  EXPECT_DEATH(static_cast<void>(k.candidatesOf(cpr::core::PinIdx{0})),
               "CPR_DCHECK failed");
#endif
}

/// A solver whose solve() violates a contract, standing in for index-math
/// corruption detected mid-solve in an NDEBUG build.
class ViolatingSolver final : public cpr::core::Solver {
 public:
  [[nodiscard]] std::string_view name() const override { return "violating"; }
  [[nodiscard]] cpr::core::Assignment solve(
      const cpr::core::PanelKernel& /*k*/,
      cpr::core::PanelScratch* /*scratch*/ = nullptr,
      cpr::obs::Collector* /*obs*/ = nullptr,
      cpr::support::Deadline /*deadline*/ = {}) const override {
    throw ContractViolation(
        "CPR_CHECK failed: simulated contract violation mid-solve");
  }
};

TEST(Contracts, ViolationIsStatusReturningAtTheTrySolveBoundary) {
  const cpr::core::PanelKernel k =
      cpr::core::PanelKernelBuilder(cpr::core::ProfitModel::SqrtSpan)
          .finish();
  const ViolatingSolver s;
  const cpr::support::Outcome<cpr::core::Assignment> out = s.trySolve(k);
  EXPECT_EQ(out.code(), cpr::support::StatusCode::Failed);
  EXPECT_TRUE(out.status().isFailure());
  EXPECT_NE(out.status().message().find("simulated contract violation"),
            std::string::npos)
      << out.status().toString();
}

}  // namespace
