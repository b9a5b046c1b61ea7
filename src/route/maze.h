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
/// wavefront arrays plus the engine's tree-membership stamps) lives in a
/// `MazeScratch` arena, one per worker, mirroring `core::PanelScratch`.
/// That is what lets the negotiation router search many nets concurrently
/// against one shared grid and serialize only the commits.
#pragma once

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
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

/// Open-list key of an entry with priority `f` and global node id `id`:
/// f's IEEE-754 bits in the high word, the id in the low word. For f ≥ 0
/// (never NaN, never −0) the bits of f order like its value, so comparing
/// two keys as unsigned integers is the (f, id) lexicographic comparison in
/// one instruction, ties broken by the smaller id.
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
/// pairs, and never grow anything — the caller owns the storage (push_back,
/// then sift up; sift down, then pop_back).
void openSiftUp(std::uint64_t* heap, std::size_t n) CPR_NOALLOC;
/// Removes the minimum of the 4-ary min-heap `heap[0, n)` (n ≥ 1): the last
/// entry refills the root and sinks, leaving the heap in `heap[0, n-1)`.
/// Read `heap[0]` first; drop the stale last slot afterwards.
void openSiftDown(std::uint64_t* heap, std::size_t n) CPR_NOALLOC;

/// Per-worker arena for everything one net search mutates: the A* distance/
/// parent/stamp arrays, the engine's Steiner-tree membership stamps, and the
/// `route.astar.*` tallies (flushed to the observer by whoever owns the
/// collector, after the parallel region — the collector itself is not
/// thread-safe). Reused across searches; epochs avoid per-search clears.
///
/// The per-node arrays cover only the box the search is bound to (a net's
/// window, not the die), indexed by the row-major local id
/// `layer·bw·bh + (y−y0)·bw + (x−x0)`. Stored node ids (`parent`, `tree`,
/// heap entries) stay global, so pop order and route digests do not depend
/// on where the box sits.
struct MazeScratch {
  std::vector<float> dist;
  std::vector<int> parent;        ///< global id of the predecessor
  std::vector<long> stamp;        ///< epoch per node for dist/parent
  std::vector<long> targetStamp;  ///< epoch per node marking targets
  long epoch = 0;
  std::vector<long> treeStamp;    ///< epoch per node for tree membership
  long treeEpoch = 0;
  /// Scratch-resident Steiner-tree node list for the engine's searchNet:
  /// the multi-source seed set grows with every landed path, and keeping
  /// it here means warm searches reuse the capacity of the largest net
  /// seen instead of paying a fresh allocation per net (large seed sets
  /// cross glibc's mmap threshold, which made the per-call buffer a
  /// measurable per-net cost, not just churn).
  std::vector<int> tree;
  long searches = 0;  ///< route.astar.searches since the last flush
  long pops = 0;      ///< route.astar.pops since the last flush
  /// The A* open list: a 4-ary min-heap of `openKey(f, id)` words (see
  /// there), kept by `openSiftUp`/`openSiftDown`. The unsigned order of a
  /// key is the (f, id) lexicographic order, so entries pop in exactly the
  /// sequence a `std::priority_queue<std::pair<float, int>>` under
  /// `std::greater<>` pops them, and route digests do not depend on the
  /// heap's shape. Scratch-resident so warm searches never touch the heap
  /// allocator; findPath reserves the worst-case entry count before
  /// entering the hot loop.
  std::vector<std::uint64_t> heap;
  geom::Rect box;     ///< bound box (grid columns × tracks)
  int boxWidth = 0;   ///< box.width(), the local row stride
  int boxPlane = 0;   ///< nodes per layer inside the box

  /// Binds the arena to a non-empty `box`: later local ids are relative to
  /// it. The arrays only grow, when the box holds more nodes than any box
  /// before; stale entries are harmless because epochs only increase.
  /// Sanctioned warmup allocation: everything the hot search loop touches
  /// is (re)allocated here or not at all.
  void bind(const geom::Rect& box) CPR_COLD_OK;
  /// Nodes (both layers) inside the bound box.
  [[nodiscard]] int boxNodes() const { return 2 * boxPlane; }
  /// Local id of a node inside the bound box.
  [[nodiscard]] std::size_t local(const Node& n) const {
    return static_cast<std::size_t>(static_cast<int>(n.layer) * boxPlane +
                                    (n.y - box.y.lo) * boxWidth +
                                    (n.x - box.x.lo));
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
  [[nodiscard]] float nodeCostAt(const Node& n, int id, Index net,
                                 const MazeCosts& c) const CPR_HOT;

  const RoutingGrid& grid_;
};

}  // namespace cpr::route
