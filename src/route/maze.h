/// \file maze.h
/// Negotiated-cost A* maze search on the unidirectional routing grid.
///
/// One search connects the net's partially built tree (multi-source) to the
/// next pin's access nodes (multi-target). Moves follow the unidirectional
/// rule: M2 nodes expand horizontally, M3 nodes vertically, and a via move
/// toggles the layer in place. Node entry cost = metal base + present-
/// sharing penalty * occupancy + history (PathFinder negotiation [21,22]);
/// via moves add the via base cost and the paper's forbidden grid cost (10)
/// when a different net owns a via within `db::kViaSpacing` grids of the
/// site.
///
/// Searches are const over the grid: all per-search mutable state (the A*
/// cells and open list plus the engine's tree-membership stamps) lives in a
/// `MazeScratch` arena, one per worker, mirroring `core::PanelScratch`.
/// That is what lets the negotiation router search many nets concurrently
/// against one shared grid and serialize only the commits.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "geom/rect.h"
#include "route/grid.h"
#include "support/contracts.h"
#include "support/hot_annotations.h"

namespace cpr::route {

/// Paper: base cost 1 for metal grids.
inline constexpr float kMetalCost = 1.0F;
/// Paper: base cost 1 for via grids.
inline constexpr float kViaCost = 1.0F;
/// Paper: forbidden cost 10 for via grids (`RoutingGrid::viaForbidden`).
inline constexpr float kForbiddenViaCost = 10.0F;

/// The negotiation's per-stage prices; the base costs above never change.
struct MazeCosts {
  float present = 0.0F;        ///< sharing penalty multiplier (0 = independent stage)
  /// Same-lane adjacency penalty: entering a node whose same-direction
  /// neighbor is occupied by another net prices the line-end extension that
  /// would collide there (extensions are committed as metal at the end of
  /// every run, so a stop next to foreign metal shares the extension cell).
  float adjacency = 0.0F;
  bool hardBlockOccupied = false;  ///< sequential mode: occupied nodes are walls
};

/// Open-list key of an entry with priority `f` and node id `id`: f's
/// IEEE-754 bits in the high word, the id in the low word. For f ≥ 0 (never
/// NaN, never −0) the bits of f order like its value, so comparing two keys
/// as unsigned integers is the (f, id) lexicographic comparison in one
/// instruction, ties broken by the smaller id.
[[nodiscard]] inline std::uint64_t openKey(float f, int id) {
  CPR_DCHECK(f >= 0.0F && !std::signbit(f) && id >= 0);
  return (std::uint64_t{std::bit_cast<std::uint32_t>(f)} << 32) |
         static_cast<std::uint32_t>(id);
}
[[nodiscard]] inline float openKeyF(std::uint64_t key) {
  return std::bit_cast<float>(static_cast<std::uint32_t>(key >> 32));
}
[[nodiscard]] inline int openKeyId(std::uint64_t key) {
  return static_cast<int>(static_cast<std::uint32_t>(key));
}

/// 4-ary min-heap over `heap[0, n)` whose last entry `heap[n-1]` was just
/// appended: moves it up to its place. The sifts move a hole, not swapped
/// pairs, and never grow anything — the caller owns the storage.
void openSiftUp(std::uint64_t* heap, std::size_t n) CPR_NOALLOC;
/// Removes the minimum of the 4-ary min-heap `heap[0, n)` (n ≥ 1): the last
/// entry refills the root and sinks, leaving the heap in `heap[0, n-1)`.
/// Read `heap[0]` first.
void openSiftDown(std::uint64_t* heap, std::size_t n) CPR_NOALLOC;

/// The A* open list: pops `openKey` words in ascending unsigned order, so in
/// exactly the sequence a `std::priority_queue<std::pair<float, int>>` under
/// `std::greater<>` pops the same pushes, for any non-negative floats and in
/// any push order (no monotonicity is assumed).
///
/// Two levels. A 4-ary heap (`openSiftUp`/`openSiftDown`) holds the entries
/// whose f is at or below the last level drawn; every other entry waits in
/// one of 32 radix buckets, keyed on the highest bit in which its f's IEEE
/// bits differ from the level's. Bucket b holds only f above the level
/// that agree with it above bit b, so the buckets are disjoint ranges in
/// bucket order. A push above the level is a list link; when the heap runs
/// dry, `popMin` draws the lowest non-empty bucket: its least f becomes the
/// level, the entries at that f move into the heap, and the rest relink
/// into lower buckets (each entry moves down at most 31 times). The
/// buckets are singly linked lists in one bump-allocated pool with a
/// non-empty mask, so a search never clears them.
class OpenList {
 public:
  /// Empties the list and makes room for `pushes` pushes before the next
  /// reset. Grows only; the one allocating member, called before a search.
  void reset(std::size_t pushes) CPR_COLD_OK;
  [[nodiscard]] bool empty() const { return heapSize_ == 0 && mask_ == 0; }
  /// Adds `key` (an `openKey`). At most `pushes` per reset.
  void push(std::uint64_t key) CPR_NOALLOC;
  /// Removes and returns the least key; the list must not be empty.
  [[nodiscard]] std::uint64_t popMin() CPR_NOALLOC;
  [[nodiscard]] std::size_t footprintBytes() const CPR_NOALLOC;

 private:
  struct Entry {
    std::uint32_t fbits;  ///< high word of the key
    std::uint32_t id;     ///< low word of the key
    std::uint32_t next;   ///< next entry of the same bucket, or kEnd
  };
  static constexpr std::uint32_t kEnd = ~std::uint32_t{0};

  void heapPush(std::uint64_t key) CPR_NOALLOC;
  /// Links pool entry `e` (f bits above the level) into its bucket.
  void link(std::uint32_t e) CPR_NOALLOC;
  /// Refills the empty heap from the lowest non-empty bucket.
  void draw() CPR_NOALLOC;

  std::unique_ptr<std::uint64_t[]> heap_;
  std::unique_ptr<Entry[]> pool_;
  std::size_t capacity_ = 0;  ///< slots in each of heap_ and pool_
  std::size_t heapSize_ = 0;
  std::uint32_t poolSize_ = 0;
  std::uint32_t level_ = 0;   ///< f bits of the last level drawn
  std::uint32_t mask_ = 0;    ///< bit b set: bucket b is non-empty
  std::array<std::uint32_t, 32> head_{};  ///< valid where mask_ is set
};

/// One box node's search state, 16 bytes, so a pop reads one cell and a
/// move's reached test one more. Stamps are epochs: the fields count only
/// when `stamp` (for dist and parent) or `target` equals the search's
/// epoch, so a search clears nothing.
struct MazeCell {
  float dist = 0.0F;                  ///< g of the best path found so far
  std::uint32_t parent = kNoParent;   ///< box-local id of the predecessor
  std::uint32_t stamp = 0;            ///< epoch of dist/parent
  std::uint32_t target = 0;           ///< epoch in which the node is a target
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};
};
static_assert(sizeof(MazeCell) == 16);

/// Per-worker arena for everything one net search mutates: the A* cells and
/// open list, the engine's Steiner-tree membership stamps, and the
/// `route.astar.*` tallies (flushed to the observer by whoever owns the
/// collector, after the parallel region — the collector itself is not
/// thread-safe). Reused across searches; epochs avoid per-search clears.
///
/// The per-node arrays cover only the box the search is bound to (a net's
/// window, not the die), indexed by the row-major box-local id
/// `layer·bw·bh + (y−y0)·bw + (x−x0)`. Inside one box local ids order like
/// global ids (both are row-major over (layer, y, x)), so the open list and
/// `parent` carry local ids and the (f, id) tie-break, the pop order and
/// every digest do not depend on where the box sits. Only the path handed
/// back, the tree and the grid lookups use global ids.
struct MazeScratch {
  std::vector<MazeCell> cells;
  std::uint32_t epoch = 0;              ///< of the current search's cells
  std::vector<std::uint32_t> treeStamp; ///< epoch per node for tree membership
  std::uint32_t treeEpoch = 0;
  /// Scratch-resident Steiner-tree node list for the engine's searchNet:
  /// the multi-source seed set grows with every landed path, and keeping
  /// it here means warm searches reuse the capacity of the largest net
  /// seen instead of paying a fresh allocation per net (large seed sets
  /// cross glibc's mmap threshold, which made the per-call buffer a
  /// measurable per-net cost, not just churn).
  std::vector<int> tree;
  long searches = 0;  ///< route.astar.searches since the last flush
  long pops = 0;      ///< route.astar.pops since the last flush
  /// Scratch-resident so warm searches never touch the allocator; findPath
  /// resets it to the worst-case push count before entering the hot loop.
  OpenList open;
  geom::Rect box;     ///< bound box (grid columns × tracks)
  int boxWidth = 0;   ///< box.width(), the local row stride
  int boxPlane = 0;   ///< nodes per layer inside the box
  std::uint64_t boxRowMagic = 0;  ///< rowMagic(boxWidth), for row()

  /// Binds the arena to a non-empty `box`: later local ids are relative to
  /// it. The arrays only grow, when the box holds more nodes than any box
  /// before; stale entries are harmless because a live epoch never matches
  /// them. Sanctioned warmup allocation: everything the hot search loop
  /// touches is (re)allocated here or in `OpenList::reset`, or not at all.
  void bind(const geom::Rect& box) CPR_COLD_OK;
  /// The next cell epoch. When the 32-bit count wraps, every cell's stamps
  /// are cleared first, so no stale stamp can equal a live epoch.
  [[nodiscard]] std::uint32_t nextEpoch() CPR_NOALLOC;
  /// The next tree epoch, with the same wrap reset over `treeStamp`.
  [[nodiscard]] std::uint32_t nextTreeEpoch() CPR_NOALLOC;
  /// Nodes (both layers) inside the bound box.
  [[nodiscard]] int boxNodes() const { return 2 * boxPlane; }
  /// Local id of a node inside the bound box.
  [[nodiscard]] std::size_t local(const Node& n) const {
    return static_cast<std::size_t>(static_cast<int>(n.layer) * boxPlane +
                                    (n.y - box.y.lo) * boxWidth +
                                    (n.x - box.x.lo));
  }
  /// Box row (y − y0) of the in-layer offset `rem` of a local id.
  [[nodiscard]] Coord row(std::uint32_t rem) const {
    return rowOf(rem, boxRowMagic);
  }
  [[nodiscard]] std::size_t footprintBytes() const CPR_NOALLOC;
};

class MazeRouter {
 public:
  explicit MazeRouter(const RoutingGrid& grid) : grid_(grid) {}

  /// Finds a min-cost path from any source to any target inside `window`
  /// (both layers) and appends its node ids, source→target inclusive, to
  /// `path`. Returns false, leaving `path` as it was, when disconnected.
  /// Sources already in the target set append a single node. Sources and
  /// targets may lie outside `window`; only the moves between them are
  /// confined to it. Const over the grid; all mutable search state and the
  /// searches/pops tallies land in `scratch`, which is bound to the hull of
  /// `window` and the endpoints (clipped to the grid).
  [[nodiscard]] bool findPath(const std::vector<int>& sources,
                              const std::vector<int>& targets,
                              const geom::Rect& window, Index net,
                              const MazeCosts& costs, MazeScratch& scratch,
                              std::vector<int>& path) const CPR_HOT;

  /// Cost of entering node `id` for `net` (via costs excluded), or +inf when
  /// the net may not enter: a blockage, a foreign or contested M2 owner, or
  /// (under `hardBlockOccupied`) an occupied node.
  [[nodiscard]] float nodeCost(int id, Index net,
                               const MazeCosts& c) const CPR_HOT;

 private:
  /// nodeCost for a node the caller has already decoded: `n` is node `id`.
  /// Its same-lane neighbours are the ids next to `id` (±1 on M2, ±width
  /// on M3), so nothing here decodes or encodes a node.
  [[nodiscard]] float nodeCostAt(const Node& n, int id, Index net,
                                 const MazeCosts& c) const CPR_HOT;

  const RoutingGrid& grid_;
};

}  // namespace cpr::route
