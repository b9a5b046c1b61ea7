/// \file property_test.cpp
/// Cross-module property tests on randomly generated designs: invariants
/// that must hold for any input, checked over parameterized seed sweeps.
#include <gtest/gtest.h>

#include <set>

#include "core/conflict.h"
#include "core/interval_gen.h"
#include "core/lr_solver.h"
#include "core/solver.h"
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
    const core::Problem p = core::buildProblem(d, panel);
    for (std::size_t j = 0; j < p.pins.size(); ++j) {
      const db::Pin& pin = d.pin(p.pins[j].designPin);
      for (core::Index i : p.pins[j].intervals) {
        const core::AccessInterval& iv =
            p.intervals[static_cast<std::size_t>(i)];
        // Candidate covers the pin on one of the pin's tracks, on free space.
        EXPECT_TRUE(iv.span.contains(pin.shape.x));
        EXPECT_TRUE(pin.shape.y.contains(iv.track));
        EXPECT_TRUE(panel.freeOn(iv.track).containsAll(iv.span));
        // The conflict span is the inflated real span.
        EXPECT_TRUE(iv.conflictSpan.contains(iv.span));
        // Interval association is exactly the covered same-net pins.
        for (core::Index q : iv.pins) {
          const db::Pin& qp = d.pin(p.pins[static_cast<std::size_t>(q)].designPin);
          EXPECT_EQ(qp.net, iv.net);
          EXPECT_TRUE(iv.span.contains(qp.shape.x));
          EXPECT_TRUE(qp.shape.y.contains(iv.track));
        }
      }
      // Every pin has its guaranteed minimum interval (Theorem 1).
      ASSERT_NE(p.pins[j].minimalInterval, geom::kInvalidIndex);
    }
  }
}

TEST_P(DesignProperty, SolversProduceLegalComparableSolutions) {
  const db::Design d = randomDesign(GetParam(), 64, 1);
  core::Problem p = core::buildProblem(d, db::extractPanel(d, 0));
  core::detectConflicts(p);

  const core::Assignment lr = core::solveLr(p);
  ilp::IlpOptions io;
  io.deadline = support::Deadline::after(5.0);
  const core::Assignment exact = core::IlpSolver{io}.solve(p);
  // Only a proved optimum bounds LR from above; the ILP search does not
  // start from the LR solution.
  ASSERT_TRUE(exact.provedOptimal);

  for (const core::Assignment* a : {&lr, &exact}) {
    EXPECT_EQ(a->violations, 0);
    const core::AssignmentAudit audit_ = core::audit(p, *a);
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
  route::RouteEngine engine(d, nullptr, 12);
  const route::RoutingGrid& g = engine.grid();
  for (db::Index n = 0; n < static_cast<db::Index>(d.nets().size()); ++n) {
    if (!engine.routeNet(n, {})) continue;
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
  core::Problem p = core::buildProblem(d, db::extractPanel(d, 0));
  core::detectConflicts(p);
  // Any two intervals whose conflict spans overlap on one track must appear
  // together in at least one conflict set.
  std::set<std::pair<core::Index, core::Index>> covered;
  for (const core::ConflictSet& cs : p.conflicts) {
    for (std::size_t a = 0; a < cs.intervals.size(); ++a) {
      for (std::size_t b = a + 1; b < cs.intervals.size(); ++b) {
        covered.insert({std::min(cs.intervals[a], cs.intervals[b]),
                        std::max(cs.intervals[a], cs.intervals[b])});
      }
    }
  }
  for (std::size_t a = 0; a < p.intervals.size(); ++a) {
    for (std::size_t b = a + 1; b < p.intervals.size(); ++b) {
      if (p.intervals[a].track != p.intervals[b].track) continue;
      if (!p.intervals[a].conflictSpan.overlaps(p.intervals[b].conflictSpan))
        continue;
      EXPECT_TRUE(covered.count({static_cast<core::Index>(a),
                                 static_cast<core::Index>(b)}))
          << "overlap of I" << a << " and I" << b << " uncovered";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DesignProperty,
                         ::testing::Range<std::uint64_t>(200, 212));

}  // namespace
}  // namespace cpr
