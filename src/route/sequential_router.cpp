#include "route/sequential_router.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <numeric>

#include "obs/names.h"
#include "route/engine.h"

namespace cpr::route {

namespace {
using Clock = std::chrono::steady_clock;
}

RoutingResult routeSequential(const db::Design& design,
                              const SequentialOptions& opts) {
  const auto t0 = Clock::now();
  RoutingResult result;
  obs::Collector* obs = &result.stats;
  RouteEngine engine(design, /*plan=*/nullptr, opts.windowMargin,
                     opts.drc.lineEndExtension, obs);
  DrcRules signoff = opts.drc;
  signoff.lineEndExtension = 0;
  RoutingGrid& grid = engine.grid();
  const auto numNets = static_cast<Index>(design.nets().size());

  MazeCosts costs = opts.costs;
  costs.hardBlockOccupied = true;
  costs.present = 0.0F;
  if (costs.adjacency == 0.0F) costs.adjacency = 25.0F;  // line-end awareness
  const Coord retryMargin =
      opts.globalRetry ? std::max(grid.width(), grid.height()) : 16;
  MazeScratch scratch;  // the one search arena of this single-threaded driver

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
  std::vector<int> attempts(static_cast<std::size_t>(numNets), 0);
  std::vector<int> ripped(static_cast<std::size_t>(numNets), 0);
  std::vector<char> failed(static_cast<std::size_t>(numNets), 0);
  int passes = 0;

  while (!queue.empty()) {
    if (opts.deadline.expired()) {
      // Budget fired: stop routing, mark everything still queued as failed
      // (routed nets keep their geometry — nets are never half-routed).
      obs::add(obs, obs::names::kRouteTimeout);
      for (const Index n : queue) failed[static_cast<std::size_t>(n)] = 1;
      queue.clear();
      break;
    }
    const Index net = queue.front();
    queue.pop_front();
    ++attempts[static_cast<std::size_t>(net)];
    passes = std::max(passes, attempts[static_cast<std::size_t>(net)]);

    if (engine.routeNet(net, costs, scratch) ||
        engine.routeNet(net, costs, scratch, retryMargin)) {
      claim(net);
      continue;
    }
    if (attempts[static_cast<std::size_t>(net)] >= opts.maxPasses) {
      failed[static_cast<std::size_t>(net)] = 1;
      continue;
    }
    if (attempts[static_cast<std::size_t>(net)] >= 2) {
      // Rip-up pass: evict the nets sitting on the cheapest probe path.
      if (auto probe = engine.probePath(net, /*present=*/50.0F, scratch)) {
        std::vector<Index> blockers;
        for (int id : *probe) {
          const Index o = owner[static_cast<std::size_t>(id)];
          if (o != geom::kInvalidIndex && o != net &&
              std::find(blockers.begin(), blockers.end(), o) == blockers.end())
            blockers.push_back(o);
        }
        bool rippedAny = false;
        for (Index b : blockers) {
          if (ripped[static_cast<std::size_t>(b)] >= opts.maxRipsPerNet)
            continue;
          ++ripped[static_cast<std::size_t>(b)];
          rip(b);
          queue.push_back(b);
          rippedAny = true;
        }
        if (rippedAny &&
            (engine.routeNet(net, costs, scratch) ||
             engine.routeNet(net, costs, scratch, retryMargin))) {
          claim(net);
          continue;
        }
      }
    }
    queue.push_back(net);  // defer to a later position (dynamic reordering)
  }

  // ---- legalization: reroute DRC-dirty nets ----
  for (int pass = 0; pass < opts.legalizationPasses; ++pass) {
    if (opts.deadline.expired()) {
      obs::add(obs, obs::names::kRouteTimeout);
      break;
    }
    const auto nodes = engine.allNodes();
    const auto vias = engine.allVias();
    const DrcReport report = checkDesignRules(
        DrcInput{nodes, vias, grid.width(), grid.height()}, signoff);
    bool any = false;
    for (Index n = 0; n < numNets; ++n) {
      if (!report.dirty[static_cast<std::size_t>(n)]) continue;
      any = true;
      rip(n);
      if (engine.routeNet(n, costs, scratch) ||
          engine.routeNet(n, costs, scratch, retryMargin)) {
        claim(n);
      } else {
        failed[static_cast<std::size_t>(n)] = 1;
      }
    }
    if (!any) break;
  }

  obs->gauge(obs::names::kRouteScratchPeakBytes,
             static_cast<double>(scratch.footprintBytes()));

  // ---- signoff ----
  result.nets.resize(static_cast<std::size_t>(numNets));
  obs->add(obs::names::kRouteRrrIterations, passes);
  const auto nodes = engine.allNodes();
  const auto vias = engine.allVias();
  const DrcReport report = checkDesignRules(
      DrcInput{nodes, vias, grid.width(), grid.height()}, signoff, obs);
  for (Index n = 0; n < numNets; ++n) {
    NetResult& nr = result.nets[static_cast<std::size_t>(n)];
    const RouteEngine::NetState& st = engine.state(n);
    nr.routed = st.routed;
    nr.clean = st.routed && !report.dirty[static_cast<std::size_t>(n)];
    nr.wirelength = st.wirelength;
    nr.vias = static_cast<int>(st.vias.size());
  }
  if (opts.keepGeometry) {
    result.geometry.resize(static_cast<std::size_t>(numNets));
    for (Index n = 0; n < numNets; ++n)
      result.geometry[static_cast<std::size_t>(n)] = engine.geometryOf(n);
  }
  result.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return result;
}

}  // namespace cpr::route
