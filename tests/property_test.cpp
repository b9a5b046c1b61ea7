/// \file property_test.cpp
/// Cross-module property tests on randomly generated designs: invariants
/// that must hold for any input, checked over parameterized seed sweeps.
#include <gtest/gtest.h>

#include <set>

#include "core/interval_gen.h"
#include "core/lr_solver.h"
#include "core/solver.h"
#include "db/layer.h"
#include "db/panel.h"
#include "gen/generator.h"
#include "route/engine.h"

namespace cpr {
namespace {

db::Design randomDesign(std::uint64_t seed, geom::Coord width = 80,
                        geom::Coord rows = 2) {
  gen::GenOptions o;
  o.seed = seed;
  o.width = width;
  o.numRows = rows;
  o.pinDensity = 0.22;
  o.minPinTracks = 2;
  o.maxPinTracks = 4;
  o.maxNetSpan = 30;
  o.blockagesPerRow = 2;
  return gen::generate(o);
}

class DesignProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DesignProperty, IntervalGenerationInvariants) {
  const db::Design d = randomDesign(GetParam());
  for (const db::Panel& panel : db::extractPanels(d)) {
    const core::PanelKernel k = core::buildPanelKernel(d, {&panel, 1});
    for (std::size_t j = 0; j < k.numPins(); ++j) {
      const db::Pin& pin = d.pin(k.designPinOf(core::PinIdx{j}));
      for (const core::CandIdx i : k.candidatesOf(core::PinIdx{j})) {
        const geom::Interval& span = k.spanOf(i);
        // Candidate covers the pin on one of the pin's tracks, on free space.
        EXPECT_TRUE(span.contains(pin.shape.x));
        EXPECT_TRUE(pin.shape.y.contains(k.trackOf(i)));
        EXPECT_TRUE(panel.freeOn(k.trackOf(i)).containsAll(span));
        // Interval association is exactly the covered same-net pins.
        for (const core::PinIdx q : k.pinsOf(i)) {
          const db::Pin& qp = d.pin(k.designPinOf(q));
          EXPECT_EQ(qp.net, k.netOf(i));
          EXPECT_TRUE(span.contains(qp.shape.x));
          EXPECT_TRUE(qp.shape.y.contains(k.trackOf(i)));
        }
      }
      // Every pin has its guaranteed minimum interval (Theorem 1).
      ASSERT_TRUE(k.minimalIntervalOf(core::PinIdx{j}).valid());
    }
  }
}

TEST_P(DesignProperty, SolversProduceLegalComparableSolutions) {
  const db::Design d = randomDesign(GetParam(), 64, 1);
  const db::Panel panel = db::extractPanel(d, 0);
  const core::PanelKernel k = core::buildPanelKernel(d, {&panel, 1});

  const core::Assignment lr = core::solveLr(k);
  ilp::IlpOptions io;
  io.deadline = support::Deadline::after(5.0);
  const core::Assignment exact = core::IlpSolver{io}.solve(k);
  // Only a proved optimum bounds LR from above; the ILP search does not
  // start from the LR solution.
  ASSERT_TRUE(exact.provedOptimal);

  for (const core::Assignment* a : {&lr, &exact}) {
    EXPECT_EQ(a->violations, 0);
    const core::AssignmentAudit audit_ = core::audit(k, *a);
    EXPECT_EQ(audit_.overlapsBetweenNets, 0);
    EXPECT_EQ(audit_.unassignedPins, 0);
    EXPECT_TRUE(audit_.eachPinCovered);
  }
  // The optimum never loses to LR; LR stays within a reasonable factor
  // (the paper's "pretty close", Fig. 6(b)).
  EXPECT_GE(exact.objective, lr.objective - 1e-9);
  EXPECT_GE(lr.objective, 0.85 * exact.objective);
}

TEST_P(DesignProperty, RoutedNetsTouchAllTheirPins) {
  const db::Design d = randomDesign(GetParam());
  route::RouteEngine engine(d, nullptr);
  const route::RoutingGrid& g = engine.grid();
  route::MazeScratch scratch;
  for (db::Index n = 0; n < static_cast<db::Index>(d.nets().size()); ++n) {
    if (!engine.routeNet(n, {}, scratch)) continue;
    const auto& st = engine.state(n);
    std::set<int> nodes(st.nodes.begin(), st.nodes.end());
    // Every pin of the net must have a V1 via over its shape, and that via
    // site must carry committed metal.
    std::size_t v1 = 0;
    for (const route::ViaSite& v : st.vias) {
      if (v.level != 1) continue;
      ++v1;
      EXPECT_TRUE(nodes.count(g.id(route::Node{route::RLayer::M2, v.x, v.y})))
          << "V1 at " << v.x << "," << v.y << " has no metal";
    }
    EXPECT_GE(v1, d.net(n).pins.size());
  }
}

TEST_P(DesignProperty, ConflictSetsCoverAllPairwiseOverlaps) {
  const db::Design d = randomDesign(GetParam(), 48, 1);
  const db::Panel panel = db::extractPanel(d, 0);
  const core::PanelKernel k = core::buildPanelKernel(d, {&panel, 1});
  // Any two intervals whose guarded spans overlap on one track must appear
  // together in at least one conflict set.
  std::set<std::pair<core::Index, core::Index>> covered;
  for (std::size_t m = 0; m < k.numConflicts(); ++m) {
    const std::span<const core::CandIdx> members =
        k.membersOf(core::ConflictIdx{m});
    for (std::size_t a = 0; a < members.size(); ++a) {
      for (std::size_t b = a + 1; b < members.size(); ++b) {
        covered.insert({std::min(members[a], members[b]).value(),
                        std::max(members[a], members[b]).value()});
      }
    }
  }
  auto guarded = [&](core::CandIdx i) {
    return geom::Interval{k.spanOf(i).lo - db::kLineEndExtension,
                          k.spanOf(i).hi + db::kLineEndExtension};
  };
  for (std::size_t a = 0; a < k.numIntervals(); ++a) {
    for (std::size_t b = a + 1; b < k.numIntervals(); ++b) {
      const core::CandIdx ia{a};
      const core::CandIdx ib{b};
      if (k.trackOf(ia) != k.trackOf(ib)) continue;
      if (!guarded(ia).overlaps(guarded(ib))) continue;
      EXPECT_TRUE(covered.count({ia.value(), ib.value()}))
          << "overlap of I" << a << " and I" << b << " uncovered";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DesignProperty,
                         ::testing::Range<std::uint64_t>(200, 212));

}  // namespace
}  // namespace cpr
