#include "route/maze.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "support/alloc_hook.h"

namespace cpr::route {

namespace {
constexpr float kInf = std::numeric_limits<float>::infinity();
/// Children per open-list node: a 4-ary heap is half as deep as a binary
/// one, and a node's four children are 32 contiguous bytes.
constexpr std::size_t kArity = 4;
}  // namespace

void openSiftUp(std::uint64_t* heap, std::size_t n) {
  std::size_t hole = n - 1;
  const std::uint64_t key = heap[hole];
  while (hole > 0) {
    const std::size_t up = (hole - 1) / kArity;
    if (heap[up] <= key) break;
    heap[hole] = heap[up];
    hole = up;
  }
  heap[hole] = key;
}

void openSiftDown(std::uint64_t* heap, std::size_t n) {
  const std::size_t size = n - 1;  // entries left after the pop
  const std::uint64_t key = heap[size];
  std::size_t hole = 0;
  for (;;) {
    const std::size_t first = hole * kArity + 1;
    if (first >= size) break;
    const std::size_t last = std::min(first + kArity, size);
    std::size_t least = first;
    for (std::size_t c = first + 1; c < last; ++c)
      if (heap[c] < heap[least]) least = c;
    if (heap[least] >= key) break;
    heap[hole] = heap[least];
    hole = least;
  }
  heap[hole] = key;
}

void MazeScratch::bind(const geom::Rect& b) {
  box = b;
  boxWidth = b.width();
  boxPlane = b.width() * b.height();
  const std::size_t n = static_cast<std::size_t>(boxNodes());
  if (dist.size() >= n) return;
  dist.resize(n, kInf);
  parent.resize(n, -1);
  stamp.resize(n, -1);
  targetStamp.resize(n, -1);
  treeStamp.resize(n, -1);
}

std::size_t MazeScratch::footprintBytes() const {
  return dist.capacity() * sizeof(float) + parent.capacity() * sizeof(int) +
         (stamp.capacity() + targetStamp.capacity() + treeStamp.capacity()) *
             sizeof(long) +
         tree.capacity() * sizeof(int) +
         heap.capacity() * sizeof(std::uint64_t);
}

inline float MazeRouter::nodeCostAt(const Node& n, int id, Index net,
                                    const MazeCosts& c) const {
  if (n.layer == RLayer::M2) {
    // One compare covers blockages, other nets' pins and intervals, and
    // contested nodes: the blocked and contested codes match no net.
    const Index owner = grid_.owner(id);  // M2 ids occupy the first plane
    if (owner != geom::kInvalidIndex && owner != net) return kInf;
  } else if (grid_.blocked(id)) {
    return kInf;
  }
  const int occ = grid_.occupancy(id);
  if (c.hardBlockOccupied && occ > 0) return kInf;
  float cost = kMetalCost + c.present * static_cast<float>(occ) +
               static_cast<float>(grid_.history(id));
  if (c.adjacency > 0.0F) {
    // Same-lane neighbors: previous/next column on M2, previous/next track
    // on M3 (parallel wires on adjacent lanes are fine in unidirectional
    // routing; only same-lane proximity threatens the cut mask).
    const auto occAt = [&](Coord x, Coord y) {
      return grid_.inside(x, y) ? grid_.occupancy(grid_.id(Node{n.layer, x, y}))
                                : 0;
    };
    const int near = n.layer == RLayer::M2
                         ? occAt(n.x - 1, n.y) + occAt(n.x + 1, n.y)
                         : occAt(n.x, n.y - 1) + occAt(n.x, n.y + 1);
    cost += c.adjacency * static_cast<float>(near);
  }
  return cost;
}

float MazeRouter::nodeCost(int id, Index net, const MazeCosts& c) const {
  return nodeCostAt(grid_.node(id), id, net, c);
}

bool MazeRouter::findPath(const std::vector<int>& sources,
                          const std::vector<int>& targets,
                          const geom::Rect& window, Index net,
                          const MazeCosts& costs, MazeScratch& scratch,
                          std::vector<int>& path) const {
  if (sources.empty() || targets.empty()) return false;
  // Target bbox for the admissible A* heuristic (min edge cost = metal).
  geom::Rect tbox;
  for (int t : targets) {
    const Node n = grid_.node(t);
    tbox.expand(geom::Point{n.x, n.y});
  }
  // The search touches the window plus its endpoints, all on the grid.
  geom::Rect box = window;
  box.expand(tbox);
  for (int s : sources) {
    const Node n = grid_.node(s);
    box.expand(geom::Point{n.x, n.y});
  }
  scratch.bind(geom::intersect(
      box, geom::Rect{0, 0, grid_.width() - 1, grid_.height() - 1}));
  const long epoch = ++scratch.epoch;
  ++scratch.searches;
  long pops = 0;  // tallied once per search to keep the hot loop branchless
  for (int t : targets)
    scratch.targetStamp[scratch.local(grid_.node(t))] = epoch;

  auto heuristic = [&](const Node& n) {
    const Coord dx = n.x < tbox.x.lo ? tbox.x.lo - n.x
                     : n.x > tbox.x.hi ? n.x - tbox.x.hi
                                       : 0;
    const Coord dy = n.y < tbox.y.lo ? tbox.y.lo - n.y
                     : n.y > tbox.y.hi ? n.y - tbox.y.hi
                                       : 0;
    return kMetalCost * static_cast<float>(dx + dy);
  };

  // Worst-case open-list size, so the hot loop never grows the heap: the
  // heuristic is consistent (L1 distance to the target bbox scaled by the
  // minimum edge cost), so each node of the box is expanded at most once
  // after its first fresh pop, each expansion pushes at most 3 entries (two
  // lateral moves plus one via), and the seed pass pushes one entry per
  // source. Warm scratches satisfy this reserve without touching the
  // allocator.
  scratch.heap.clear();
  scratch.heap.reserve(static_cast<std::size_t>(scratch.boxNodes()) * 3 +
                       sources.size());

  // `id` is the global node id (heap entries and parents keep it, so the
  // (f, id) tie-break is independent of the box), `n` its decoded node.
  auto reached = [&](std::size_t i, float g) {
    return scratch.stamp[i] == epoch && scratch.dist[i] <= g;
  };
  auto relax = [&](int id, const Node& n, std::size_t i, float g, int from) {
    if (reached(i, g)) return;
    scratch.stamp[i] = epoch;
    scratch.dist[i] = g;
    scratch.parent[i] = from;
    scratch.heap.push_back(openKey(g + heuristic(n), id));
    openSiftUp(scratch.heap.data(), scratch.heap.size());
  };

  int goal = -1;
  {
    const support::alloc::HotRegion hotRegion;  // runtime zero-alloc pin
    for (int s : sources) {
      const Node n = grid_.node(s);
      relax(s, n, scratch.local(n), 0.0F, -1);
    }

    while (!scratch.heap.empty()) {
      const std::uint64_t top = scratch.heap.front();
      openSiftDown(scratch.heap.data(), scratch.heap.size());
      scratch.heap.pop_back();
      const float f = openKeyF(top);
      const int u = openKeyId(top);
      ++pops;
      const Node n = grid_.node(u);
      const std::size_t ui = scratch.local(n);
      if (scratch.stamp[ui] != epoch ||
          f > scratch.dist[ui] + heuristic(n) + 1e-5F)
        continue;  // stale entry
      if (scratch.targetStamp[ui] == epoch) {
        goal = u;
        break;
      }
      const float g = scratch.dist[ui];

      // Every step costs at least kMetalCost (+ kViaCost on a via move),
      // and float addition is monotone, so a neighbour already reached
      // within g + that floor would reject the move: skip its pricing.
      const float metalFloor = g + kMetalCost;
      const float viaFloor = g + (kMetalCost + kViaCost);
      auto tryMove = [&](Coord x, Coord y, RLayer layer, bool viaMove) {
        if (!grid_.inside(x, y) || !window.contains(geom::Point{x, y})) return;
        const Node v{layer, x, y};
        const std::size_t vi = scratch.local(v);
        if (reached(vi, viaMove ? viaFloor : metalFloor)) return;
        const int vid = grid_.id(v);
        float step = nodeCostAt(v, vid, net, costs);
        if (step == kInf) return;
        if (viaMove) {
          step += kViaCost;
          if (grid_.viaForbidden(x, y, net)) step += kForbiddenViaCost;
        }
        relax(vid, v, vi, g + step, u);
      };

      if (n.layer == RLayer::M2) {
        tryMove(n.x - 1, n.y, RLayer::M2, false);
        tryMove(n.x + 1, n.y, RLayer::M2, false);
        tryMove(n.x, n.y, RLayer::M3, true);  // V2 up
      } else {
        tryMove(n.x, n.y - 1, RLayer::M3, false);
        tryMove(n.x, n.y + 1, RLayer::M3, false);
        tryMove(n.x, n.y, RLayer::M2, true);  // V2 down
      }
    }
  }
  scratch.pops += pops;
  if (goal == -1) return false;

  // The path lands in the caller's vector, outside the hot region; it grows
  // geometrically, and a reused vector soon stops growing at all.
  const auto parentOf = [&](int v) {
    return scratch.parent[scratch.local(grid_.node(v))];
  };
  std::size_t end = path.size();
  for (int v = goal; v != -1; v = parentOf(v)) ++end;
  if (end > path.capacity()) path.reserve(std::max(end, 2 * path.capacity()));
  path.resize(end);
  for (int v = goal; v != -1; v = parentOf(v)) path[--end] = v;
  return true;
}

}  // namespace cpr::route
