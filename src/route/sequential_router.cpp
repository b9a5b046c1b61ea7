#include "route/sequential_router.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <numeric>

#include "obs/names.h"
#include "route/drc.h"
#include "route/engine.h"

namespace cpr::route {

namespace {
using Clock = std::chrono::steady_clock;

/// Deferral passes before a net is given up.
constexpr int kMaxPasses = 4;
/// Times one net may be ripped by a blocked net.
constexpr int kMaxRipsPerNet = 2;
/// Reroute sweeps over DRC-dirty nets after the queue drains.
constexpr int kLegalizationPasses = 2;
}  // namespace

RoutingResult routeSequential(const db::Design& design,
                              support::Deadline deadline) {
  const auto t0 = Clock::now();
  RoutingResult result;
  obs::Collector* obs = &result.stats;
  RouteEngine engine(design, /*plan=*/nullptr, obs);
  RoutingGrid& grid = engine.grid();
  const auto numNets = static_cast<Index>(design.nets().size());

  MazeCosts costs;
  costs.hardBlockOccupied = true;
  costs.adjacency = 25.0F;  // line-end awareness
  MazeScratch scratch;  // the one search arena of this single-threaded driver
  // Failed nets retry with a die-spanning window — PARR "depends on
  // detours" to finish nets, which is where its runtime goes (Section 5.2).
  const Coord retryMargin = std::max(grid.width(), grid.height());
  auto routeOrRetry = [&](Index net) {
    return engine.routeNet(net, costs, scratch) ||
           engine.routeNet(net, costs, scratch, retryMargin);
  };

  // Node owner map (occupancy never exceeds 1 in hard mode).
  std::vector<Index> owner(static_cast<std::size_t>(grid.numNodes()),
                           geom::kInvalidIndex);
  auto claim = [&](Index net) {
    for (int id : engine.state(net).nodes)
      owner[static_cast<std::size_t>(id)] = net;
  };
  auto rip = [&](Index net) {
    for (int id : engine.state(net).nodes)
      owner[static_cast<std::size_t>(id)] = geom::kInvalidIndex;
    engine.ripNet(net);
  };

  // Short nets first (lower metal layers are reserved for short nets).
  std::vector<Index> order(static_cast<std::size_t>(numNets));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](Index a, Index b) {
    const Coord ha = design.netBox(a).halfPerimeter();
    const Coord hb = design.netBox(b).halfPerimeter();
    return ha != hb ? ha < hb : a < b;
  });

  std::deque<Index> queue(order.begin(), order.end());
  std::vector<int> probe;  // the rip-up pass's probe path, reused
  std::vector<int> attempts(static_cast<std::size_t>(numNets), 0);
  std::vector<int> ripped(static_cast<std::size_t>(numNets), 0);
  int passes = 0;

  while (!queue.empty()) {
    if (deadline.expired()) {
      // Budget fired: stop routing; everything still queued stays unrouted
      // (routed nets keep their geometry — nets are never half-routed).
      obs::add(obs, obs::names::kRouteTimeout);
      break;
    }
    const Index net = queue.front();
    queue.pop_front();
    ++attempts[static_cast<std::size_t>(net)];
    passes = std::max(passes, attempts[static_cast<std::size_t>(net)]);

    if (routeOrRetry(net)) {
      claim(net);
      continue;
    }
    if (attempts[static_cast<std::size_t>(net)] >= kMaxPasses)
      continue;  // given up: the net stays unrouted
    if (attempts[static_cast<std::size_t>(net)] >= 2) {
      // Rip-up pass: evict the nets sitting on the cheapest probe path.
      probe.clear();
      if (engine.probePath(net, /*present=*/50.0F, scratch, probe)) {
        std::vector<Index> blockers;
        for (int id : probe) {
          const Index o = owner[static_cast<std::size_t>(id)];
          if (o != geom::kInvalidIndex && o != net &&
              std::find(blockers.begin(), blockers.end(), o) == blockers.end())
            blockers.push_back(o);
        }
        bool rippedAny = false;
        for (Index b : blockers) {
          if (ripped[static_cast<std::size_t>(b)] >= kMaxRipsPerNet)
            continue;
          ++ripped[static_cast<std::size_t>(b)];
          rip(b);
          queue.push_back(b);
          rippedAny = true;
        }
        if (rippedAny && routeOrRetry(net)) {
          claim(net);
          continue;
        }
      }
    }
    queue.push_back(net);  // defer to a later position (dynamic reordering)
  }

  // ---- legalization: reroute DRC-dirty nets ----
  {
    obs::ScopedTimer t(obs, obs::names::kRouteDrcRepairSpan);
    for (int pass = 0; pass < kLegalizationPasses; ++pass) {
      if (deadline.expired()) {
        obs::add(obs, obs::names::kRouteTimeout);
        break;
      }
      const DrcReport report = checkDesignRules(engine.geometry());
      bool any = false;
      for (Index n = 0; n < numNets; ++n) {
        if (!report.dirty[static_cast<std::size_t>(n)]) continue;
        any = true;
        rip(n);
        if (routeOrRetry(n)) claim(n);
      }
      if (!any) break;
    }
  }

  obs->gauge(obs::names::kRouteScratchPeakBytes,
             static_cast<double>(scratch.footprintBytes()));

  obs->add(obs::names::kRouteRrrIterations, passes);
  engine.signoff(result);
  result.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return result;
}

}  // namespace cpr::route
