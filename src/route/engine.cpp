#include "route/engine.h"

#include <algorithm>
#include <cassert>

#include "db/layer.h"
#include "obs/names.h"
#include "route/drc.h"
#include "support/contracts.h"

namespace cpr::route {

RouteEngine::RouteEngine(const db::Design& design,
                         const core::PinAccessPlan* plan, obs::Collector* obs)
    : design_(design), grid_(design, plan), obs_(obs), maze_(grid_) {
  obs::gauge(obs_, obs::names::kRouteGridBytes,
             static_cast<double>(grid_.footprintBytes()));
  infos_.resize(design.nets().size());
  states_.resize(design.nets().size());
  for (std::size_t n = 0; n < design.nets().size(); ++n)
    buildNetInfo(static_cast<Index>(n), plan);
}

void RouteEngine::buildNetInfo(Index net, const core::PinAccessPlan* plan) {
  NetInfo& info = infos_[static_cast<std::size_t>(net)];
  geom::Rect window;

  for (Index pinId : design_.net(net).pins) {
    const db::Pin& pin = design_.pin(pinId);
    PinAccess acc;

    const core::PinRoute* route =
        plan && plan->routes[static_cast<std::size_t>(pinId)].valid()
            ? &plan->routes[static_cast<std::size_t>(pinId)]
            : nullptr;
    if (route) {
      // Find or create the interval record (pins may share one interval).
      int rec = -1;
      for (std::size_t r = 0; r < info.recs.size(); ++r) {
        if (info.recs[r].track == route->track &&
            info.recs[r].span == route->span) {
          rec = static_cast<int>(r);
          break;
        }
      }
      if (rec < 0) {
        rec = static_cast<int>(info.recs.size());
        info.recs.push_back(IntervalRec{route->track, route->span,
                                        pin.shape.x});
      } else {
        info.recs[static_cast<std::size_t>(rec)].needed =
            geom::hull(info.recs[static_cast<std::size_t>(rec)].needed,
                       pin.shape.x);
      }
      acc.rec = rec;
      acc.targets.reserve(static_cast<std::size_t>(route->span.span()));
      for (Coord x = route->span.lo; x <= route->span.hi; ++x)
        acc.targets.push_back(grid_.id(Node{RLayer::M2, x, route->track}));
      // V1 drops at the pin's center column on the interval track.
      const Coord mid = (pin.shape.x.lo + pin.shape.x.hi) / 2;
      acc.via = ViaSite{mid, route->track, 1};
      window.expand(geom::Rect{route->span, geom::Interval::point(route->track)});
    } else {
      for (Coord t = pin.shape.y.lo; t <= pin.shape.y.hi; ++t) {
        for (Coord x = pin.shape.x.lo; x <= pin.shape.x.hi; ++x)
          acc.targets.push_back(grid_.id(Node{RLayer::M2, x, t}));
      }
      acc.via = ViaSite{0, 0, 1};  // filled at landing time
      window.expand(pin.shape);
    }
    info.access.push_back(std::move(acc));
  }
  info.window = window;
}

int RouteEngine::recOf(const NetInfo& info, int nodeId) const {
  const Node n = grid_.node(nodeId);
  if (n.layer != RLayer::M2) return -1;
  for (std::size_t r = 0; r < info.recs.size(); ++r) {
    if (info.recs[r].track == n.y && info.recs[r].span.contains(n.x))
      return static_cast<int>(r);
  }
  return -1;
}

void RouteEngine::ripNet(Index net) {
  NetState& st = states_[static_cast<std::size_t>(net)];
  if (st.routed()) obs::add(obs_, obs::names::kRouteRipups);
  for (int id : st.nodes) grid_.removeOcc(id);
  for (const ViaSite& v : st.vias) grid_.removeVia(v.x, v.y, net);
  st.nodes.clear();
  st.vias.clear();
}

geom::Rect RouteEngine::searchWindow(const NetInfo& info, Coord m) const {
  const geom::Rect& w = info.window;
  return geom::intersect(
      geom::Rect{w.x.lo - m, w.y.lo - m, w.x.hi + m, w.y.hi + m},
      geom::Rect{0, 0, grid_.width() - 1, grid_.height() - 1});
}

NetPlan RouteEngine::searchNet(Index net, const MazeCosts& costs,
                               Coord extraMargin, MazeScratch& scratch) const {
  NetPlan plan;
  const NetInfo& info = infos_[static_cast<std::size_t>(net)];
  if (info.access.empty()) return plan;
  plan.recUsedXs.reserve(info.recs.size());
  plan.recUsedXs.resize(info.recs.size());  // default Interval = empty extent

  const geom::Rect window = searchWindow(info, kWindowMargin + extraMargin);
  // Every access target lies inside the window, so each findPath below
  // binds the scratch to this same box and the tree stamps stay valid.
  scratch.bind(window);

  // Connect pins left-to-right starting from pin 0's access component.
  std::vector<std::size_t> order(info.access.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const Index pa = design_.net(net).pins[a];
    const Index pb = design_.net(net).pins[b];
    return design_.pin(pa).shape.x.lo < design_.pin(pb).shape.x.lo;
  });

  // Plan-assembly vectors get their expected sizes up front: one V1 per pin
  // (+1 for the first pin's projection V1), one path per connection, and the
  // seed targets for the tree. Landed paths can still grow vias/tree past
  // these — that growth is plan assembly between searches, outside the
  // armed hot region, not the A* inner loop.
  std::size_t seedCap = 0;
  for (const PinAccess& a : info.access) seedCap += a.targets.size();
  plan.vias.reserve(info.access.size() + 1);
  plan.paths.reserve(info.access.size());
  const long treeEpoch = ++scratch.treeEpoch;
  std::vector<int>& tree = scratch.tree;
  tree.clear();
  tree.reserve(seedCap);  // warm no-op once the largest net has been seen
  auto addTree = [&](int id) {
    const std::size_t i = scratch.local(grid_.node(id));
    if (scratch.treeStamp[i] != treeEpoch) {
      scratch.treeStamp[i] = treeEpoch;
      tree.push_back(id);
    }
  };
  auto noteIntervalUse = [&](int nodeId) {
    const int rec = recOf(info, nodeId);
    if (rec >= 0) {
      geom::Interval& used = plan.recUsedXs[static_cast<std::size_t>(rec)];
      used = geom::hull(used,
                        geom::Interval::point(grid_.node(nodeId).x));
    }
  };

  // Projection-pin V1 sites are discovered at landing time; searches must
  // not write them back into the (shared, const) net info, so they live in
  // a local shadow of the access list.
  std::vector<ViaSite> accVia(info.access.size());
  for (std::size_t k = 0; k < info.access.size(); ++k)
    accVia[k] = info.access[k].via;

  // Seed with the first pin.
  {
    const PinAccess& acc0 = info.access[order[0]];
    for (int id : acc0.targets) addTree(id);
    if (acc0.rec >= 0) plan.vias.push_back(accVia[order[0]]);
    // Projection pins get their V1 at the first path's source (or, for
    // single-pin nets, at the first target).
  }

  for (std::size_t k = 1; k < order.size(); ++k) {
    const PinAccess& acc = info.access[order[k]];
    std::optional<std::vector<int>> path =
        maze_.findPath(tree, acc.targets, window, net, costs, scratch);
    if (!path) return plan;  // not found; caller may retry with a larger margin
    CPR_DCHECK(scratch.box == window);
    // Record V2 vias along the path and interval usage at both ends.
    for (std::size_t i = 0; i + 1 < path->size(); ++i) {
      const Node a = grid_.node((*path)[i]);
      const Node b = grid_.node((*path)[i + 1]);
      if (a.layer != b.layer)
        plan.vias.push_back(ViaSite{a.x, a.y, 2});
    }
    noteIntervalUse(path->front());
    noteIntervalUse(path->back());
    if (acc.rec >= 0) {
      plan.vias.push_back(accVia[order[k]]);
      for (int id : acc.targets) addTree(id);
    } else {
      const Node landing = grid_.node(path->back());
      accVia[order[k]] = ViaSite{landing.x, landing.y, 1};
      plan.vias.push_back(accVia[order[k]]);
    }
    // First pin's projection V1: source end of the first path.
    if (k == 1 && info.access[order[0]].rec < 0) {
      const Node src = grid_.node(path->front());
      accVia[order[0]] = ViaSite{src.x, src.y, 1};
      plan.vias.push_back(accVia[order[0]]);
    }
    for (int id : *path) addTree(id);
    plan.paths.push_back(std::move(*path));
  }

  if (order.size() == 1) {
    // Single-pin net: drop one via on the first access node.
    const PinAccess& acc0 = info.access[order[0]];
    if (acc0.rec < 0) {
      const Node n0 = grid_.node(acc0.targets.front());
      accVia[order[0]] = ViaSite{n0.x, n0.y, 1};
      plan.vias.push_back(accVia[order[0]]);
      plan.paths.push_back({acc0.targets.front()});
    }
  }

  plan.found = true;
  return plan;
}

void RouteEngine::commitPlan(Index net, const NetPlan& plan) {
  CPR_DCHECK(plan.found);
  const NetInfo& info = infos_[static_cast<std::size_t>(net)];
  NetState& st = states_[static_cast<std::size_t>(net)];
  CPR_DCHECK(!st.routed());

  std::vector<int> committed;
  for (const auto& path : plan.paths)
    committed.insert(committed.end(), path.begin(), path.end());
  // Interval metal, trimmed to used extent but always covering its pins
  // (unused tails are not manufactured; Section 5's WL stays comparable).
  for (std::size_t r = 0; r < info.recs.size(); ++r) {
    const IntervalRec& rec = info.recs[r];
    geom::Interval trimmed = geom::hull(rec.needed, plan.recUsedXs[r]);
    trimmed = geom::intersect(trimmed, rec.span);
    for (Coord x = trimmed.lo; x <= trimmed.hi; ++x)
      committed.push_back(grid_.id(Node{RLayer::M2, x, rec.track}));
  }
  std::sort(committed.begin(), committed.end());
  committed.erase(std::unique(committed.begin(), committed.end()),
                  committed.end());

  // Line-end extensions (Section 4): every maximal run gets
  // db::kLineEndExtension extra cells at each end, committed as metal so the
  // negotiation itself keeps diff-net line ends a cut-mask-friendly distance
  // apart.
  const int plane = grid_.planeSize();
  const Coord w = grid_.width();
  std::vector<int> extension;
  auto tryExtend = [&](Coord x, Coord y, RLayer layer) {
    if (!grid_.inside(x, y)) return;
    const int id = grid_.id(Node{layer, x, y});
    if (!grid_.blocked(id)) extension.push_back(id);
  };
  for (std::size_t i = 0; i < committed.size(); ++i) {
    const int a = committed[i];
    const Node n = grid_.node(a);
    if (a < plane) {  // M2 run ends: previous/next column missing
      const bool hasPrev = i > 0 && committed[i - 1] == a - 1 &&
                           (a % plane) / w == ((a - 1) % plane) / w;
      const bool hasNext = i + 1 < committed.size() &&
                           committed[i + 1] == a + 1 &&
                           (a % plane) / w == ((a + 1) % plane) / w;
      for (Coord e = 1; e <= db::kLineEndExtension; ++e) {
        if (!hasPrev) tryExtend(n.x - e, n.y, RLayer::M2);
        if (!hasNext) tryExtend(n.x + e, n.y, RLayer::M2);
      }
    } else {  // M3 run ends: previous/next track missing
      const bool hasPrev =
          std::binary_search(committed.begin(), committed.end(), a - w);
      const bool hasNext =
          std::binary_search(committed.begin(), committed.end(), a + w);
      for (Coord e = 1; e <= db::kLineEndExtension; ++e) {
        if (!hasPrev) tryExtend(n.x, n.y - e, RLayer::M3);
        if (!hasNext) tryExtend(n.x, n.y + e, RLayer::M3);
      }
    }
  }
  committed.insert(committed.end(), extension.begin(), extension.end());
  std::sort(committed.begin(), committed.end());
  committed.erase(std::unique(committed.begin(), committed.end()),
                  committed.end());

  CPR_DCHECK(!committed.empty());  // routed() reads the committed nodes
  for (int id : committed) grid_.addOcc(id);
  for (const ViaSite& v : plan.vias) grid_.addVia(v.x, v.y, net);

  st.nodes = std::move(committed);
  st.vias = plan.vias;
}

void RouteEngine::flushSearchStats(MazeScratch& scratch) {
  obs::add(obs_, obs::names::kRouteSearches, scratch.searches);
  obs::add(obs_, obs::names::kRoutePops, scratch.pops);
  scratch.searches = 0;
  scratch.pops = 0;
}

bool RouteEngine::routeNet(Index net, const MazeCosts& costs,
                           MazeScratch& scratch, Coord extraMargin) {
  ripNet(net);
  NetPlan plan = searchNet(net, costs, extraMargin, scratch);
  flushSearchStats(scratch);
  if (!plan.found) return false;
  commitPlan(net, plan);
  return true;
}

std::optional<std::vector<int>> RouteEngine::probePath(Index net,
                                                       float present,
                                                       MazeScratch& scratch) {
  const NetInfo& info = infos_[static_cast<std::size_t>(net)];
  if (info.access.size() < 2) return std::nullopt;
  MazeCosts costs;
  costs.present = present;
  costs.hardBlockOccupied = false;
  const geom::Rect window = searchWindow(info, kWindowMargin * 2);
  auto path = maze_.findPath(info.access[0].targets, info.access[1].targets,
                             window, net, costs, scratch);
  flushSearchStats(scratch);
  return path;
}

NetGeometry RouteEngine::geometryOf(Index net) const {
  NetGeometry out;
  const NetState& st = states_[static_cast<std::size_t>(net)];
  if (!st.routed()) return out;
  const int plane = grid_.planeSize();
  // Committed nodes are sorted by id: M2 first (row-major: runs are
  // consecutive ids), then M3 (runs differ by `w`). Extract maximal runs.
  std::size_t k = 0;
  while (k < st.nodes.size() && st.nodes[k] < plane) {  // M2
    std::size_t e = k;
    const Node start = grid_.node(st.nodes[k]);
    while (e + 1 < st.nodes.size() && st.nodes[e + 1] == st.nodes[e] + 1 &&
           grid_.node(st.nodes[e + 1]).y == start.y) {
      ++e;
    }
    const Node last = grid_.node(st.nodes[e]);
    out.segments.push_back(
        RouteSegment{false, start.y, geom::Interval{start.x, last.x}});
    k = e + 1;
  }
  // M3: group by column.
  std::vector<int> m3(st.nodes.begin() + static_cast<std::ptrdiff_t>(k),
                      st.nodes.end());
  std::sort(m3.begin(), m3.end(), [&](int a, int b) {
    const Node na = grid_.node(a);
    const Node nb = grid_.node(b);
    return na.x != nb.x ? na.x < nb.x : na.y < nb.y;
  });
  for (std::size_t i = 0; i < m3.size();) {
    const Node start = grid_.node(m3[i]);
    std::size_t e = i;
    while (e + 1 < m3.size()) {
      const Node next = grid_.node(m3[e + 1]);
      if (next.x != start.x || next.y != grid_.node(m3[e]).y + 1) break;
      ++e;
    }
    out.segments.push_back(RouteSegment{
        true, start.x, geom::Interval{start.y, grid_.node(m3[e]).y}});
    i = e + 1;
  }
  out.vias = st.vias;
  return out;
}

std::vector<NetGeometry> RouteEngine::geometry() const {
  std::vector<NetGeometry> out(states_.size());
  for (std::size_t n = 0; n < states_.size(); ++n)
    out[n] = geometryOf(static_cast<Index>(n));
  return out;
}

void RouteEngine::signoff(RoutingResult& result) const {
  obs::ScopedTimer t(obs_, obs::names::kRouteSignoffSpan);
  result.geometry = geometry();
  for (std::size_t n = 0; n < states_.size(); ++n)  // routed iff it has metal
    CPR_CHECK(states_[n].routed() == result.geometry[n].routed());
  DrcReport report = checkDesignRules(result.geometry, obs_);
  result.dirty = std::move(report.dirty);
}

}  // namespace cpr::route
