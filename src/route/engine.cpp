#include "route/engine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <numeric>

#include "db/layer.h"
#include "obs/names.h"
#include "route/drc.h"
#include "support/contracts.h"

namespace cpr::route {

namespace {
/// sharingNets' coarse cells are 2^kCellShift grids on a side.
constexpr int kCellShift = 4;
}  // namespace

RouteEngine::RouteEngine(const db::Design& design,
                         const core::PinAccessPlan* plan, obs::Collector* obs)
    : design_(design), grid_(design, plan), obs_(obs), maze_(grid_) {
  obs::gauge(obs_, obs::names::kRouteGridBytes,
             static_cast<double>(grid_.footprintBytes()));
  infos_.resize(design.nets().size());
  states_.resize(design.nets().size());
  recheck_.assign(design.nets().size(), 0);
  cellCols_ = ((grid_.width() - 1) >> kCellShift) + 1;
  hotCell_.assign(static_cast<std::size_t>(cellCols_) *
                      static_cast<std::size_t>(
                          ((grid_.height() - 1) >> kCellShift) + 1),
                  0);
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
      window.expand(pin.shape);
    }
    info.access.push_back(std::move(acc));
  }
  // Store the access list in connection order.
  const std::vector<Index>& pins = design_.net(net).pins;
  std::vector<std::size_t> order(info.access.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return design_.pin(pins[a]).shape.x.lo < design_.pin(pins[b]).shape.x.lo;
  });
  std::vector<PinAccess> access;
  access.reserve(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    if (order[k] == 0) info.probeFrom = static_cast<int>(k);
    if (order[k] == 1) info.probeTo = static_cast<int>(k);
    access.push_back(std::move(info.access[order[k]]));
  }
  info.access = std::move(access);
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
  st.box = geom::Rect{};
}

bool RouteEngine::sharesGrid(Index net) const {
  for (int id : states_[static_cast<std::size_t>(net)].nodes) {
    if (grid_.occupancy(id) > 1) return true;
  }
  return false;
}

const std::vector<Index>& RouteEngine::sharingNets() {
  // A net that shares now either was re-flagged (committed since the last
  // call, or sharing at it) or kept its nodes, one of which became shared
  // since; that node lies in the net's box, so its cell is hot.
  bool anyHot = false;
  for (const int id : grid_.sharedSinceMark()) {
    if (grid_.occupancy(id) <= 1) continue;
    const Node n = grid_.node(id);
    hotCell_[static_cast<std::size_t>((n.y >> kCellShift) * cellCols_ +
                                      (n.x >> kCellShift))] = 1;
    anyHot = true;
  }
  const auto boxIsHot = [&](const geom::Rect& b) {
    for (Coord cy = b.y.lo >> kCellShift; cy <= b.y.hi >> kCellShift; ++cy) {
      for (Coord cx = b.x.lo >> kCellShift; cx <= b.x.hi >> kCellShift; ++cx) {
        if (hotCell_[static_cast<std::size_t>(cy * cellCols_ + cx)])
          return true;
      }
    }
    return false;
  };
  sharing_.clear();
  for (std::size_t n = 0; n < states_.size(); ++n) {
    const bool flagged = recheck_[n] != 0;
    recheck_[n] = 0;
    const NetState& st = states_[n];
    if (!st.routed() || !(flagged || (anyHot && boxIsHot(st.box)))) continue;
    if (sharesGrid(static_cast<Index>(n))) {
      sharing_.push_back(static_cast<Index>(n));
      recheck_[n] = 1;
    }
  }
  if (anyHot) std::fill(hotCell_.begin(), hotCell_.end(), 0);
  grid_.markShared();
  return sharing_;
}

geom::Rect RouteEngine::searchWindow(const NetInfo& info, Coord m) const {
  const geom::Rect& w = info.window;
  return geom::intersect(
      geom::Rect{w.x.lo - m, w.y.lo - m, w.x.hi + m, w.y.hi + m},
      geom::Rect{0, 0, grid_.width() - 1, grid_.height() - 1});
}

void RouteEngine::searchNet(Index net, const MazeCosts& costs,
                            Coord extraMargin, MazeScratch& scratch,
                            NetPlan& plan) const {
  // Refill the slot, keeping its capacity.
  const NetInfo& info = infos_[static_cast<std::size_t>(net)];
  plan.found = false;
  plan.nodes.clear();
  plan.vias.clear();
  plan.box = geom::Rect{};
  plan.recUsedXs.assign(info.recs.size(), geom::Interval{});  // empty extents
  if (info.access.empty()) return;

  const geom::Rect window = searchWindow(info, kWindowMargin + extraMargin);
  // Every access target lies inside the window, so each findPath below
  // binds the scratch to this same box and the tree stamps stay valid.
  scratch.bind(window);

  // Plan-assembly vectors get their expected sizes up front: one V1 per pin
  // (+1 for the first pin's projection V1) and the seed targets for the
  // tree. Landed paths can still grow nodes/vias/tree past these — that
  // growth is plan assembly between searches, outside the armed hot
  // region, not the A* inner loop, and a warm slot has the room already.
  std::size_t seedCap = 0;
  for (const PinAccess& a : info.access) seedCap += a.targets.size();
  plan.vias.reserve(info.access.size() + 1);
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

  // Connect pins left-to-right starting from the first pin's access
  // component. An interval pin's V1 is known up front; a projection pin's
  // is found where a path lands on it (the first pin's: where the first
  // path leaves it, or, for a single-pin net, at its first target).
  const PinAccess& acc0 = info.access.front();
  for (int id : acc0.targets) addTree(id);
  if (acc0.rec >= 0) plan.vias.push_back(acc0.via);

  for (std::size_t k = 1; k < info.access.size(); ++k) {
    const PinAccess& acc = info.access[k];
    const std::size_t begin = plan.nodes.size();
    if (!maze_.findPath(tree, acc.targets, window, net, costs, scratch,
                        plan.nodes))
      return;  // not found; caller may retry with a larger margin
    CPR_DCHECK(scratch.box == window);
    // Record the path's box, V2 vias along it and interval usage at both
    // ends.
    const int front = plan.nodes[begin];
    const int back = plan.nodes.back();
    Node a = grid_.node(front);
    plan.box.expand(geom::Point{a.x, a.y});
    for (std::size_t i = begin + 1; i < plan.nodes.size(); ++i) {
      const Node b = grid_.node(plan.nodes[i]);
      if (a.layer != b.layer) plan.vias.push_back(ViaSite{a.x, a.y, 2});
      plan.box.expand(geom::Point{b.x, b.y});
      a = b;
    }
    noteIntervalUse(front);
    noteIntervalUse(back);
    if (acc.rec >= 0) {
      plan.vias.push_back(acc.via);
      for (int id : acc.targets) addTree(id);
    } else {
      const Node landing = grid_.node(back);
      plan.vias.push_back(ViaSite{landing.x, landing.y, 1});
    }
    if (k == 1 && acc0.rec < 0) {
      const Node src = grid_.node(front);
      plan.vias.push_back(ViaSite{src.x, src.y, 1});
    }
    for (std::size_t i = begin; i < plan.nodes.size(); ++i)
      addTree(plan.nodes[i]);
  }

  if (info.access.size() == 1 && acc0.rec < 0) {
    // Single projection pin: one via on its first access node.
    const Node n0 = grid_.node(acc0.targets.front());
    plan.vias.push_back(ViaSite{n0.x, n0.y, 1});
    plan.nodes.assign(1, acc0.targets.front());  // no path was searched
    plan.box.expand(geom::Point{n0.x, n0.y});
  }

  plan.found = true;
}

void RouteEngine::commitPlan(Index net, const NetPlan& plan) {
  CPR_DCHECK(plan.found);
  const NetInfo& info = infos_[static_cast<std::size_t>(net)];
  NetState& st = states_[static_cast<std::size_t>(net)];
  CPR_DCHECK(!st.routed());

  // The box of the paths and the interval metal. Interval metal is trimmed
  // to its used extent but always covers its pins (unused tails are not
  // manufactured; Section 5's WL stays comparable).
  const auto trimmed = [&](std::size_t r) {
    const IntervalRec& rec = info.recs[r];
    return geom::intersect(geom::hull(rec.needed, plan.recUsedXs[r]),
                           rec.span);
  };
  geom::Rect box = plan.box;
  for (std::size_t r = 0; r < info.recs.size(); ++r) {
    const geom::Interval xs = trimmed(r);
    if (!xs.empty())
      box.expand(geom::Rect{xs, geom::Interval::point(info.recs[r].track)});
  }
  CPR_DCHECK(!box.empty());  // routed() reads the committed nodes
  // Line-end extensions reach db::kLineEndExtension past the box.
  constexpr Coord kExt = db::kLineEndExtension;
  box = geom::intersect(
      geom::Rect{box.x.lo - kExt, box.y.lo - kExt, box.x.hi + kExt,
                 box.y.hi + kExt},
      geom::Rect{0, 0, grid_.width() - 1, grid_.height() - 1});

  // A bitmap of the box over both layers, rows padded to whole words: one
  // pass marks the nodes (deduplicating them), word operations add the
  // line-end extensions, and a row-major walk emits the ids in ascending
  // order.
  const int bh = box.height();
  const int rowWords = (box.width() + 63) / 64;
  bits_.assign(static_cast<std::size_t>(2 * bh * rowWords), 0);
  const auto rowOf = [&](RLayer layer, Coord y) {
    return bits_.data() +
           static_cast<std::ptrdiff_t>(
               (static_cast<int>(layer) * bh + (y - box.y.lo)) * rowWords);
  };
  const auto mark = [&](const Node& n) {
    CPR_DCHECK(box.contains(geom::Point{n.x, n.y}));
    const auto lx = static_cast<unsigned>(n.x - box.x.lo);
    rowOf(n.layer, n.y)[lx >> 6] |= std::uint64_t{1} << (lx & 63);
  };
  for (const int id : plan.nodes) mark(grid_.node(id));
  for (std::size_t r = 0; r < info.recs.size(); ++r) {
    const geom::Interval xs = trimmed(r);
    for (Coord x = xs.lo; x <= xs.hi; ++x)
      mark(Node{RLayer::M2, x, info.recs[r].track});
  }

  // Line-end extensions (Section 4): every maximal run gets
  // db::kLineEndExtension extra cells at each end, committed as metal so the
  // negotiation itself keeps diff-net line ends a cut-mask-friendly distance
  // apart. A cell that close to a run along the run's direction is on the
  // run or past one of its ends, so the extensions are the nodes' dilation
  // along their layer's direction, less the nodes themselves and blocked
  // cells: word shifts on M2, neighbouring rows on M3. The box is clipped
  // to the die, and no node lies within the reach of its other sides, so
  // masking the row padding is the only clipping left.
  static_assert(kExt > 0 && kExt < 64);
  const int tail = box.width() % 64;
  const std::uint64_t lastWord = tail == 0 ? ~std::uint64_t{0}
                                           : (std::uint64_t{1} << tail) - 1;
  extension_.clear();
  const auto extend = [&](std::uint64_t grown, int word, Coord y,
                          RLayer layer) {
    if (word + 1 == rowWords) grown &= lastWord;
    for (; grown != 0; grown &= grown - 1) {
      const Node n{layer, box.x.lo + word * 64 + std::countr_zero(grown), y};
      if (!grid_.blocked(grid_.id(n))) extension_.push_back(n);
    }
  };
  for (Coord y = box.y.lo; y <= box.y.hi; ++y) {
    const std::uint64_t* m2 = rowOf(RLayer::M2, y);
    const std::uint64_t* m3 = rowOf(RLayer::M3, y);
    for (int j = 0; j < rowWords; ++j) {
      const std::uint64_t left = j > 0 ? m2[j - 1] : 0;
      const std::uint64_t right = j + 1 < rowWords ? m2[j + 1] : 0;
      std::uint64_t grown2 = 0;
      std::uint64_t grown3 = 0;
      for (Coord e = 1; e <= kExt; ++e) {
        grown2 |= m2[j] << e | left >> (64 - e);   // the columns at +e
        grown2 |= m2[j] >> e | right << (64 - e);  // the columns at -e
        if (y - e >= box.y.lo) grown3 |= rowOf(RLayer::M3, y - e)[j];
        if (y + e <= box.y.hi) grown3 |= rowOf(RLayer::M3, y + e)[j];
      }
      extend(grown2 & ~m2[j], j, y, RLayer::M2);
      extend(grown3 & ~m3[j], j, y, RLayer::M3);
    }
  }
  for (const Node& n : extension_) mark(n);

  std::size_t count = 0;
  for (const std::uint64_t w : bits_)
    count += static_cast<std::size_t>(std::popcount(w));
  st.nodes.reserve(count);

  for (const RLayer layer : {RLayer::M2, RLayer::M3}) {
    for (Coord y = box.y.lo; y <= box.y.hi; ++y) {
      const std::uint64_t* row = rowOf(layer, y);
      const int rowBase = grid_.id(Node{layer, box.x.lo, y});
      for (int j = 0; j < rowWords; ++j) {
        for (std::uint64_t w = row[j]; w != 0; w &= w - 1) {
          const int id = rowBase + j * 64 + std::countr_zero(w);
          st.nodes.push_back(id);
          grid_.addOcc(id);
        }
      }
    }
  }
  for (const ViaSite& v : plan.vias) grid_.addVia(v.x, v.y, net);
  st.vias = plan.vias;
  st.box = box;
  recheck_[static_cast<std::size_t>(net)] = 1;
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
  searchNet(net, costs, extraMargin, scratch, plan_);
  flushSearchStats(scratch);
  if (!plan_.found) return false;
  commitPlan(net, plan_);
  return true;
}

bool RouteEngine::probePath(Index net, float present, MazeScratch& scratch,
                            std::vector<int>& path) {
  const NetInfo& info = infos_[static_cast<std::size_t>(net)];
  if (info.access.size() < 2) return false;
  MazeCosts costs;
  costs.present = present;
  costs.hardBlockOccupied = false;
  const geom::Rect window = searchWindow(info, kWindowMargin * 2);
  const bool found = maze_.findPath(
      info.access[static_cast<std::size_t>(info.probeFrom)].targets,
      info.access[static_cast<std::size_t>(info.probeTo)].targets, window, net,
      costs, scratch, path);
  flushSearchStats(scratch);
  return found;
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
  // M3: group by column, sorting (x, y) keys decoded once per node.
  std::vector<std::uint64_t> m3;
  m3.reserve(st.nodes.size() - k);
  for (std::size_t i = k; i < st.nodes.size(); ++i) {
    const Node n = grid_.node(st.nodes[i]);
    m3.push_back(std::uint64_t{static_cast<std::uint32_t>(n.x)} << 32 |
                 static_cast<std::uint32_t>(n.y));
  }
  std::sort(m3.begin(), m3.end());
  const auto xOf = [](std::uint64_t key) {
    return static_cast<Coord>(key >> 32);
  };
  const auto yOf = [](std::uint64_t key) {
    return static_cast<Coord>(static_cast<std::uint32_t>(key));
  };
  for (std::size_t i = 0; i < m3.size();) {
    std::size_t e = i;
    while (e + 1 < m3.size() && m3[e + 1] == m3[e] + 1) ++e;  // same x, next y
    out.segments.push_back(RouteSegment{
        true, xOf(m3[i]), geom::Interval{yOf(m3[i]), yOf(m3[e])}});
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
