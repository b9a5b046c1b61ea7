/// Pinned route digests on the ecc suite design (seed 7) for all three
/// schemes. The thread-sweep tests elsewhere only compare a run against
/// another run of the same binary, so a change that moved pop order
/// deterministically would pass them; these constants are what
/// `cpr_route --design ecc --scheme <s> --digest` prints, and any change
/// to them is a deliberate re-baseline.
#include <gtest/gtest.h>

#include <cstdint>

#include "gen/generator.h"
#include "route/cpr.h"
#include "route/result.h"
#include "route/sequential_router.h"

namespace cpr::route {
namespace {

constexpr std::uint64_t kCprDigest = 0xd87945cf309620e9ULL;
constexpr std::uint64_t kNoPaoDigest = 0x8190778261b814adULL;
constexpr std::uint64_t kSeqDigest = 0x79a25cf425e9b34cULL;

const db::Design& ecc() {
  static const db::Design d = gen::makeSuiteDesign(gen::suiteSpec("ecc"), 7);
  return d;
}

class PinnedDigest : public ::testing::TestWithParam<int> {};

TEST_P(PinnedDigest, Cpr) {
  CprOptions opts;
  opts.pinAccess.threads = GetParam();
  opts.routing.threads = GetParam();
  EXPECT_EQ(resultDigest(routeCpr(ecc(), opts).routing), kCprDigest);
}

TEST_P(PinnedDigest, NoPao) {
  NegotiationOptions opts;
  opts.threads = GetParam();
  EXPECT_EQ(resultDigest(routeNegotiated(ecc(), nullptr, opts)),
            kNoPaoDigest);
}

INSTANTIATE_TEST_SUITE_P(Threads, PinnedDigest, ::testing::Values(1, 4));

// The sequential router has no thread knob (`--threads` does not reach it),
// so one run covers it.
TEST(PinnedDigest, Sequential) {
  EXPECT_EQ(resultDigest(routeSequential(ecc(), SequentialOptions{})),
            kSeqDigest);
}

}  // namespace
}  // namespace cpr::route
