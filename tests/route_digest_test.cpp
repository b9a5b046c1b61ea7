/// Pinned route digests on the ecc suite design (seed 7) for all three
/// schemes. The thread-sweep tests elsewhere only compare a run against
/// another run of the same binary, so a change that moved pop order
/// deterministically would pass them; these constants are what
/// `cpr_route --design ecc --scheme <s> --digest` prints, and any change
/// to them is a deliberate re-baseline.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "gen/generator.h"
#include "route/cpr.h"
#include "route/result.h"

namespace cpr::route {
namespace {

const db::Design& ecc() {
  static const db::Design d = gen::makeSuiteDesign(gen::suiteSpec("ecc"), 7);
  return d;
}

struct Pinned {
  Scheme scheme;
  int threads;
  std::uint64_t digest;
};

class PinnedDigest : public ::testing::TestWithParam<Pinned> {};

TEST_P(PinnedDigest, MatchesTheCliDigest) {
  CprOptions opts;
  opts.pinAccess.threads = GetParam().threads;
  opts.routing.threads = GetParam().threads;
  EXPECT_EQ(resultDigest(routeScheme(ecc(), GetParam().scheme, opts).routing),
            GetParam().digest);
}

// The sequential router has no thread knob (`--threads` does not reach it),
// so one run covers it.
INSTANTIATE_TEST_SUITE_P(
    Ecc, PinnedDigest,
    ::testing::Values(Pinned{Scheme::Cpr, 1, 0xd87945cf309620e9ULL},
                      Pinned{Scheme::Cpr, 4, 0xd87945cf309620e9ULL},
                      Pinned{Scheme::NoPao, 1, 0x8190778261b814adULL},
                      Pinned{Scheme::NoPao, 4, 0x8190778261b814adULL},
                      Pinned{Scheme::Seq, 1, 0x79a25cf425e9b34cULL}),
    [](const ::testing::TestParamInfo<Pinned>& info) {
      return std::string(schemeName(info.param.scheme)) + "_threads" +
             std::to_string(info.param.threads);
    });

}  // namespace
}  // namespace cpr::route
