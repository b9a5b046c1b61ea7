#include "route/maze.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>

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

void OpenList::reset(std::size_t pushes) {
  heapSize_ = 0;
  poolSize_ = 0;
  level_ = 0;
  mask_ = 0;
  if (pushes <= capacity_) return;
  // Default-initialized: nothing is written, so the pages of a large arena
  // are touched only as far as a search fills them.
  heap_ = std::make_unique_for_overwrite<std::uint64_t[]>(pushes);
  pool_ = std::make_unique_for_overwrite<Entry[]>(pushes);
  capacity_ = pushes;
}

void OpenList::heapPush(std::uint64_t key) {
  CPR_DCHECK(heapSize_ < capacity_);
  heap_[heapSize_++] = key;
  openSiftUp(heap_.get(), heapSize_);
}

void OpenList::link(std::uint32_t e) {
  Entry& x = pool_[e];
  const int b = 31 - std::countl_zero(x.fbits ^ level_);
  const std::uint32_t bit = std::uint32_t{1} << b;
  x.next = (mask_ & bit) != 0 ? head_[static_cast<std::size_t>(b)] : kEnd;
  head_[static_cast<std::size_t>(b)] = e;
  mask_ |= bit;
}

void OpenList::push(std::uint64_t key) {
  const auto fbits = static_cast<std::uint32_t>(key >> 32);
  if (fbits <= level_) {
    heapPush(key);
    return;
  }
  CPR_DCHECK(poolSize_ < capacity_);
  const std::uint32_t e = poolSize_++;
  pool_[e] = Entry{fbits, static_cast<std::uint32_t>(key), kEnd};
  link(e);
}

void OpenList::draw() {
  CPR_DCHECK(mask_ != 0);
  const auto b = static_cast<std::size_t>(std::countr_zero(mask_));
  mask_ &= mask_ - 1;
  std::uint32_t e = head_[b];
  std::uint32_t least = pool_[e].fbits;
  for (std::uint32_t i = pool_[e].next; i != kEnd; i = pool_[i].next)
    least = std::min(least, pool_[i].fbits);
  // Every bucket above b holds f above this one's, and a bucket's entries
  // agree with the level above its bit, so raising the level to `least`
  // leaves them where they are; b's own entries differ from `least` only
  // below bit b.
  level_ = least;
  while (e != kEnd) {
    const Entry x = pool_[e];
    if (x.fbits == least)
      heapPush(std::uint64_t{x.fbits} << 32 | x.id);
    else
      link(e);
    e = x.next;
  }
}

std::uint64_t OpenList::popMin() {
  if (heapSize_ == 0) draw();
  const std::uint64_t top = heap_[0];
  openSiftDown(heap_.get(), heapSize_);
  --heapSize_;
  return top;
}

std::size_t OpenList::footprintBytes() const {
  return capacity_ * (sizeof(std::uint64_t) + sizeof(Entry));
}

void MazeScratch::bind(const geom::Rect& b) {
  box = b;
  boxWidth = b.width();
  boxPlane = b.width() * b.height();
  boxRowMagic = rowMagic(boxWidth);
  const std::size_t n = static_cast<std::size_t>(boxNodes());
  if (cells.size() >= n) return;
  cells.resize(n);
  treeStamp.resize(n, 0);
}

std::uint32_t MazeScratch::nextEpoch() {
  if (++epoch == 0) {
    for (MazeCell& c : cells) c.stamp = c.target = 0;
    epoch = 1;
  }
  return epoch;
}

std::uint32_t MazeScratch::nextTreeEpoch() {
  if (++treeEpoch == 0) {
    std::fill(treeStamp.begin(), treeStamp.end(), 0U);
    treeEpoch = 1;
  }
  return treeEpoch;
}

std::size_t MazeScratch::footprintBytes() const {
  return cells.capacity() * sizeof(MazeCell) +
         treeStamp.capacity() * sizeof(std::uint32_t) +
         tree.capacity() * sizeof(int) + open.footprintBytes();
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
    const auto occAt = [&](bool inside, int at) {
      return inside ? grid_.occupancy(at) : 0;
    };
    const int w = grid_.width();
    const int near =
        n.layer == RLayer::M2
            ? occAt(n.x > 0, id - 1) + occAt(n.x + 1 < w, id + 1)
            : occAt(n.y > 0, id - w) + occAt(n.y + 1 < grid_.height(), id + w);
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
  const geom::Rect die{0, 0, grid_.width() - 1, grid_.height() - 1};
  geom::Rect box = window;
  box.expand(tbox);
  for (int s : sources) {
    const Node n = grid_.node(s);
    box.expand(geom::Point{n.x, n.y});
  }
  scratch.bind(geom::intersect(box, die));
  const std::uint32_t epoch = scratch.nextEpoch();
  ++scratch.searches;
  long pops = 0;  // tallied once per search to keep the hot loop branchless
  MazeCell* const cells = scratch.cells.data();
  for (int t : targets) cells[scratch.local(grid_.node(t))].target = epoch;

  // The open list and the cells know a node by its box-local id; a pop
  // decodes it once, and every other id a move needs is an offset of the
  // popped node's: ±1 on M2, ±box or grid width on M3, ±plane for a via.
  const Coord x0 = scratch.box.x.lo;
  const Coord y0 = scratch.box.y.lo;
  const int bw = scratch.boxWidth;
  const auto bPlane = static_cast<std::uint32_t>(scratch.boxPlane);
  const int gw = grid_.width();
  const int gPlane = grid_.planeSize();
  const int base = y0 * gw + x0;  // grid id of the box's M2 origin
  // Grid id of local id `u`, whose in-layer offset `rem` lies in box row ly.
  auto gridId = [&](std::uint32_t u, std::uint32_t rem, Coord ly) {
    return (u >= bPlane ? gPlane : 0) + base + static_cast<int>(rem) +
           ly * (gw - bw);
  };
  const geom::Rect win = geom::intersect(window, die);  // move targets
  auto heuristic = [&](Coord x, Coord y) {
    const Coord dx = x < tbox.x.lo ? tbox.x.lo - x
                     : x > tbox.x.hi ? x - tbox.x.hi
                                     : 0;
    const Coord dy = y < tbox.y.lo ? tbox.y.lo - y
                     : y > tbox.y.hi ? y - tbox.y.hi
                                     : 0;
    return kMetalCost * static_cast<float>(dx + dy);
  };

  // Worst-case push count, so the hot loop never grows the open list: the
  // heuristic is consistent (L1 distance to the target bbox scaled by the
  // minimum edge cost), so each node of the box is expanded at most once
  // after its first fresh pop, each expansion pushes at most 3 entries (two
  // lateral moves plus one via), and the seed pass pushes one entry per
  // source. Warm scratches satisfy this without touching the allocator.
  OpenList& open = scratch.open;
  open.reset(static_cast<std::size_t>(scratch.boxNodes()) * 3 +
             sources.size());

  auto reached = [&](std::uint32_t i, float g) {
    return cells[i].stamp == epoch && cells[i].dist <= g;
  };
  auto relax = [&](std::uint32_t i, Coord x, Coord y, float g,
                   std::uint32_t from) {
    if (reached(i, g)) return;
    MazeCell& c = cells[i];
    c.dist = g;
    c.parent = from;
    c.stamp = epoch;
    open.push(openKey(g + heuristic(x, y), static_cast<int>(i)));
  };

  std::uint32_t goal = MazeCell::kNoParent;
  {
    const support::alloc::HotRegion hotRegion;  // runtime zero-alloc pin
    for (int s : sources) {
      const Node n = grid_.node(s);
      relax(static_cast<std::uint32_t>(scratch.local(n)), n.x, n.y, 0.0F,
            MazeCell::kNoParent);
    }

    while (!open.empty()) {
      const std::uint64_t top = open.popMin();
      const float f = openKeyF(top);
      const auto u = static_cast<std::uint32_t>(openKeyId(top));
      ++pops;
      const bool m3 = u >= bPlane;
      const std::uint32_t rem = m3 ? u - bPlane : u;
      const Coord ly = scratch.row(rem);
      const Coord x = static_cast<Coord>(rem) - ly * bw + x0;
      const Coord y = ly + y0;
      const MazeCell cell = cells[u];
      if (cell.stamp != epoch || f > cell.dist + heuristic(x, y) + 1e-5F)
        continue;  // stale entry
      if (cell.target == epoch) {
        goal = u;
        break;
      }
      const float g = cell.dist;
      const int uid = gridId(u, rem, ly);
      const bool rowIn = win.y.contains(y);
      const bool colIn = win.x.contains(x);

      // Every step costs at least kMetalCost (+ kViaCost on a via move),
      // and float addition is monotone, so a neighbour already reached
      // within g + that floor would reject the move: skip its pricing.
      const float metalFloor = g + kMetalCost;
      const float viaFloor = g + (kMetalCost + kViaCost);
      // A move to node `to` (local id `v`, grid id `vid`), which the caller
      // has checked lies inside the window.
      auto tryMove = [&](std::uint32_t v, int vid, const Node& to,
                         bool viaMove) {
        if (reached(v, viaMove ? viaFloor : metalFloor)) return;
        float step = nodeCostAt(to, vid, net, costs);
        if (step == kInf) return;
        if (viaMove) {
          step += kViaCost;
          if (grid_.viaForbidden(to.x, to.y, net)) step += kForbiddenViaCost;
        }
        relax(v, to.x, to.y, g + step, u);
      };

      if (!m3) {
        if (rowIn && win.x.contains(x - 1))
          tryMove(u - 1, uid - 1, Node{RLayer::M2, x - 1, y}, false);
        if (rowIn && win.x.contains(x + 1))
          tryMove(u + 1, uid + 1, Node{RLayer::M2, x + 1, y}, false);
        if (rowIn && colIn)  // V2 up
          tryMove(u + bPlane, uid + gPlane, Node{RLayer::M3, x, y}, true);
      } else {
        const auto ubw = static_cast<std::uint32_t>(bw);
        if (colIn && win.y.contains(y - 1))
          tryMove(u - ubw, uid - gw, Node{RLayer::M3, x, y - 1}, false);
        if (colIn && win.y.contains(y + 1))
          tryMove(u + ubw, uid + gw, Node{RLayer::M3, x, y + 1}, false);
        if (rowIn && colIn)  // V2 down
          tryMove(u - bPlane, uid - gPlane, Node{RLayer::M2, x, y}, true);
      }
    }
  }
  scratch.pops += pops;
  if (goal == MazeCell::kNoParent) return false;

  // The path lands in the caller's vector, outside the hot region, in grid
  // ids; it grows geometrically, and a reused vector soon stops growing.
  const auto gridIdOf = [&](std::uint32_t v) {
    const std::uint32_t rem = v >= bPlane ? v - bPlane : v;
    return gridId(v, rem, scratch.row(rem));
  };
  std::size_t end = path.size();
  for (std::uint32_t v = goal; v != MazeCell::kNoParent; v = cells[v].parent)
    ++end;
  if (end > path.capacity()) path.reserve(std::max(end, 2 * path.capacity()));
  path.resize(end);
  for (std::uint32_t v = goal; v != MazeCell::kNoParent; v = cells[v].parent)
    path[--end] = gridIdOf(v);
  return true;
}

}  // namespace cpr::route
