/// Signoff checks the geometry the router ships. On the ecc suite design,
/// for every scheme at default options: the result carries one geometry
/// entry and one dirty flag per net, some nets are routed, and an
/// independent re-run of the DRC over `result.geometry` reproduces the
/// `drc.*` counters and every net's dirty flag.
///
/// The negotiated schemes run no DRC repair stage: committed line-end
/// extensions plus the post-RRR drop of nets that still share a grid make
/// their output DRC-clean by construction (db/layer.h). The NegotiatedOutput
/// cases pin that for cpr and nopao on ecc, efc and small generated designs,
/// at default options, without rip-up & reroute, and past an expired
/// deadline, and check apart from the DRC that every line end carries its
/// extension.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "db/layer.h"
#include "gen/generator.h"
#include "obs/names.h"
#include "route/cpr.h"
#include "route/drc.h"
#include "support/deadline.h"

namespace cpr::route {
namespace {

const db::Design& ecc() {
  static const db::Design d = gen::makeSuiteDesign(gen::suiteSpec("ecc"), 7);
  return d;
}

const db::Design& efc() {
  static const db::Design d = gen::makeSuiteDesign(gen::suiteSpec("efc"), 7);
  return d;
}

/// A small crowded design: few access tracks per pin and many blockages,
/// so the independent stage leaves shared grids for RRR to negotiate.
db::Design smallDesign(std::uint64_t seed) {
  gen::GenOptions o;
  o.seed = seed;
  o.width = 80;
  o.numRows = 4;
  o.pinDensity = 0.3;
  o.minPinTracks = 2;
  o.maxPinTracks = 3;
  o.m3Pitch = 3;
  o.blockagesPerRow = 4;
  return gen::generate(o);
}

/// True when the grid at (x, y) on `layer` is off the die or under a
/// blockage: the only places a line-end extension is not committed.
bool extensionStopped(const db::Design& d, db::Layer layer, Coord x, Coord y) {
  if (x < 0 || y < 0 || x >= d.width() || y >= d.gridHeight()) return true;
  return std::any_of(d.blockages().begin(), d.blockages().end(),
                     [&](const db::Blockage& b) {
                       return b.layer == layer &&
                              b.shape.contains(geom::Point{x, y});
                     });
}

/// Line ends of shipped runs that lack their extension: a via of the net
/// closer than `db::kLineEndExtension` to the end of a run through it,
/// although the grid beyond that end is free. The DRC reads runs as already
/// extended (its line-end gap is 0), so it cannot see a missing extension.
long unextendedLineEnds(const db::Design& d, const RoutingResult& r) {
  long missing = 0;
  for (const NetGeometry& g : r.geometry) {
    for (const RouteSegment& s : g.segments) {
      const db::Layer layer = s.m3 ? db::Layer::M3 : db::Layer::M2;
      for (const ViaSite& v : g.vias) {
        if (s.m3 && v.level != 2) continue;  // V1 lands on M2 only
        const Coord lane = s.m3 ? v.x : v.y;
        const Coord along = s.m3 ? v.y : v.x;
        if (lane != s.lane || !s.span.contains(along)) continue;
        for (const Coord step : {-1, 1}) {
          const Coord end = step < 0 ? s.span.lo : s.span.hi;
          if ((along - end) * step > -db::kLineEndExtension) {
            const Coord beyond = end + step;
            if (!(s.m3 ? extensionStopped(d, layer, s.lane, beyond)
                       : extensionStopped(d, layer, beyond, s.lane)))
              ++missing;
          }
        }
      }
    }
  }
  return missing;
}

/// Signoff found no violation and flagged no net, and every line end
/// carries its extension.
void expectDrcClean(const db::Design& d, Scheme scheme,
                    const NegotiationOptions& routing) {
  CprOptions opts;
  opts.routing = routing;
  const RoutingResult r = routeScheme(d, scheme, opts).routing;
  ASSERT_EQ(r.dirty.size(), d.nets().size());
  EXPECT_EQ(r.drcViolations(), 0);
  EXPECT_EQ(std::count(r.dirty.begin(), r.dirty.end(), char{1}), 0);
  EXPECT_EQ(unextendedLineEnds(d, r), 0);
}

class Signoff : public ::testing::TestWithParam<Scheme> {};

TEST_P(Signoff, ResultGeometryIsWhatTheDrcChecked) {
  const RoutingResult r = routeScheme(ecc(), GetParam()).routing;
  ASSERT_EQ(r.geometry.size(), ecc().nets().size());
  ASSERT_EQ(r.dirty.size(), r.geometry.size());
  long routed = 0;
  for (const NetGeometry& g : r.geometry) routed += g.routed() ? 1 : 0;
  EXPECT_GT(routed, 0);

  obs::Collector recheck;
  const DrcReport report = checkDesignRules(r.geometry, &recheck);
  EXPECT_EQ(report.violations, r.drcViolations());
  for (const std::string_view name :
       {obs::names::kDrcViolations, obs::names::kDrcLineEnd,
        obs::names::kDrcViaSpacing, obs::names::kDrcDirtyNets}) {
    EXPECT_EQ(recheck.counter(name), r.stats.counter(name)) << name;
  }
  EXPECT_EQ(report.dirty, r.dirty);
}

class NegotiatedOutput : public ::testing::TestWithParam<Scheme> {};

TEST_P(NegotiatedOutput, IsDrcCleanOnSuiteDesigns) {
  NegotiationOptions noRrr;
  noRrr.maxRrrIterations = 0;
  NegotiationOptions expired;
  expired.deadline = support::Deadline::after(0.0);
  for (const db::Design* d : {&ecc(), &efc()}) {
    SCOPED_TRACE(d->name());
    {
      SCOPED_TRACE("default options");
      expectDrcClean(*d, GetParam(), {});
    }
    {
      SCOPED_TRACE("no rip-up & reroute");
      expectDrcClean(*d, GetParam(), noRrr);
    }
    {
      SCOPED_TRACE("expired deadline");
      expectDrcClean(*d, GetParam(), expired);
    }
  }
}

TEST_P(NegotiatedOutput, IsDrcCleanOnSmallGeneratedDesigns) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    expectDrcClean(smallDesign(seed), GetParam(), {});
  }
}

INSTANTIATE_TEST_SUITE_P(Schemes, NegotiatedOutput,
                         ::testing::Values(Scheme::Cpr, Scheme::NoPao),
                         [](const ::testing::TestParamInfo<Scheme>& info) {
                           return std::string(schemeName(info.param));
                         });

INSTANTIATE_TEST_SUITE_P(Schemes, Signoff,
                         ::testing::Values(Scheme::Cpr, Scheme::NoPao,
                                           Scheme::Seq),
                         [](const ::testing::TestParamInfo<Scheme>& info) {
                           return std::string(schemeName(info.param));
                         });

}  // namespace
}  // namespace cpr::route
