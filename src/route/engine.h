/// \file engine.h
/// Net-level routing engine shared by the negotiation (CPR / no-PAO) and
/// sequential drivers.
///
/// The engine owns the grid and the maze searcher, precomputes per-net pin
/// access (either the optimized pin access intervals — treated as partial
/// routes, Section 4 — or the raw M2 projection of each pin), and routes
/// nets in two phases:
///
///   * **search** (`searchNet`, const): negotiated A* connects the net's
///     pins into a tree over an immutable view of the grid and fills the
///     caller's `NetPlan`; every mutable byte lives in the caller's
///     `MazeScratch` arena and plan, so many searches may run concurrently
///     against one grid.
///   * **commit** (`commitPlan`): the found paths, V1/V2 vias, trimmed
///     interval metal, and line-end extensions are written into the grid's
///     occupancy / via maps and the net's state. Commits mutate shared
///     state and must be serialized by the caller.
///
/// `routeNet` is the sequential convenience that rips, searches through the
/// caller's scratch into the engine's own plan, and commits in one call.
#pragma once

#include <cstdint>
#include <vector>

#include "core/optimizer.h"
#include "db/design.h"
#include "route/grid.h"
#include "route/maze.h"
#include "route/result.h"
#include "support/hot_annotations.h"

namespace cpr::route {

/// Outcome of one net search: everything `commitPlan` needs, and nothing
/// that aliases engine or grid state. A plan is a reusable slot: each
/// `searchNet` clears and refills it (possibly on another thread), keeping
/// its capacity, so a warm search allocates nothing.
struct NetPlan {
  bool found = false;
  /// Node ids of the found paths, concatenated in connection order (a
  /// single-pin net: its first access node).
  std::vector<int> nodes;
  std::vector<ViaSite> vias;  ///< V1 + V2 vias in discovery order
  geom::Rect box;             ///< bounding box of `nodes`
  /// Used x-extent per interval record (parallel to the net's records;
  /// default-empty when the record was never touched). Commit trims each
  /// interval to hull(needed, used) — identical to hulling the individual
  /// connection points, since only the extent ever mattered, and it keeps
  /// the search phase allocation-free.
  std::vector<geom::Interval> recUsedXs;
};

/// Search window margin around a net's pin/interval hull, in grids. Retries
/// widen it through `extraMargin`.
inline constexpr Coord kWindowMargin = 12;

class RouteEngine {
 public:
  struct NetState {
    std::vector<int> nodes;      ///< committed grid nodes (sorted, unique)
    std::vector<ViaSite> vias;   ///< V1 + V2 vias
    geom::Rect box;              ///< holds every committed node; empty if none
    /// Every committed plan writes at least one node; a rip clears them.
    [[nodiscard]] bool routed() const { return !nodes.empty(); }
  };

  /// A non-null `obs` receives the engine-level `route.*` counters (rip-ups,
  /// A* searches and pops); drivers layer their own stage counters on top.
  RouteEngine(const db::Design& design, const core::PinAccessPlan* plan,
              obs::Collector* obs = nullptr);

  [[nodiscard]] RoutingGrid& grid() { return grid_; }
  [[nodiscard]] const RoutingGrid& grid() const { return grid_; }
  [[nodiscard]] const db::Design& design() const { return design_; }
  [[nodiscard]] const NetState& state(Index net) const {
    return states_[static_cast<std::size_t>(net)];
  }
  [[nodiscard]] std::size_t numNets() const { return states_.size(); }

  /// Hull of the net's pin shapes and assigned intervals — the box the
  /// search window is grown from. Batch schedulers expand it by
  /// `kWindowMargin` (+ line-end / via slack) to test wave disjointness.
  [[nodiscard]] const geom::Rect& windowOf(Index net) const {
    return infos_[static_cast<std::size_t>(net)].window;
  }

  /// Const search phase: finds paths for `net` under the given cost model
  /// without touching the grid or the net's state, and refills `plan` with
  /// them (`plan.found` tells whether every pin connected). The caller must
  /// have ripped any previous route of the net first (a committed
  /// self-route would otherwise be priced as foreign sharing).
  /// `extraMargin` widens the search window (used by retries). All search
  /// state and the `route.astar.*` tallies land in `scratch`; flush them to
  /// the observer with `flushSearchStats` outside any parallel region.
  void searchNet(Index net, const MazeCosts& costs, Coord extraMargin,
                 MazeScratch& scratch, NetPlan& plan) const CPR_HOT;

  /// Commit phase: writes a found plan's metal, vias, interval trims, and
  /// line-end extensions into the grid and the net's state. Must be called
  /// serially, and only with a plan produced against the current grid epoch
  /// for an unrouted net.
  void commitPlan(Index net, const NetPlan& plan);

  /// Adds `scratch`'s pending searches/pops tallies to the engine observer
  /// and zeroes them. Call from one thread only.
  void flushSearchStats(MazeScratch& scratch);

  /// Routes `net` under the given cost model: rip + search (through
  /// `scratch`, into the engine's plan) + commit + tally flush in one
  /// sequential call. Returns success; on failure the net is left unrouted.
  bool routeNet(Index net, const MazeCosts& costs, MazeScratch& scratch,
                Coord extraMargin = 0);

  /// Removes the net's committed metal, occupancy and vias.
  void ripNet(Index net);

  /// True when some committed node of `net` is shared with another net.
  [[nodiscard]] bool sharesGrid(Index net) const;

  /// Every routed net that shares a grid node with another net, ascending.
  /// Costs O(nets) plus the nodes of the nets it re-checks: the nets that
  /// shared at the previous call, the nets committed since, and the nets
  /// whose box holds a node that became shared since (DESIGN.md §13). A
  /// net outside all three kept its nodes, and none of them was shared
  /// then or became shared since. The view lives until the next call.
  [[nodiscard]] const std::vector<Index>& sharingNets();

  /// Min-cost path between the net's first two pins ignoring hard
  /// occupancy (sharing allowed at cost `present`), appended to `path`;
  /// false when the net has fewer than two pins or none connects. Used by
  /// the sequential driver to find blocker nets. Searches through `scratch`
  /// and flushes its tallies.
  [[nodiscard]] bool probePath(Index net, float present, MazeScratch& scratch,
                               std::vector<int>& path);

  /// Committed geometry of every net as maximal straight segments plus
  /// vias, indexed like `Design::nets` (empty for unrouted nets).
  [[nodiscard]] std::vector<NetGeometry> geometry() const;

  /// Signoff: builds every net's geometry once, straight into
  /// `result.geometry`, checks that geometry with the DRC (recording the
  /// `drc.*` counters under the `route.signoff` span), and moves the DRC's
  /// per-net flags into `result.dirty`. A routed net that violates a rule
  /// is reported routed but not clean.
  void signoff(RoutingResult& result) const;

 private:
  /// One optimized access interval used by this net (deduplicated across
  /// pins sharing it).
  struct IntervalRec {
    Coord track = 0;
    geom::Interval span;    ///< full assigned interval
    geom::Interval needed;  ///< hull of covered pin x-ranges (never trimmed away)
  };
  /// Per-pin access description.
  struct PinAccess {
    std::vector<int> targets;  ///< M2 node ids reaching the pin
    int rec = -1;              ///< interval record index (-1: raw projection)
    /// V1 site of an interval pin; a projection pin's is where a path
    /// lands on it, so each search finds it anew.
    ViaSite via;
  };
  struct NetInfo {
    /// One entry per pin, in connection order: pins by the left edge of
    /// their shape.
    std::vector<PinAccess> access;
    /// Positions in `access` of the net's first two pins in pin order:
    /// probePath's endpoints.
    int probeFrom = 0;
    int probeTo = 0;
    std::vector<IntervalRec> recs;
    geom::Rect window;
  };

  void buildNetInfo(Index net, const core::PinAccessPlan* plan);
  /// The box one search may explore: the net's window grown by `m` on
  /// every side, clamped to the grid.
  [[nodiscard]] geom::Rect searchWindow(const NetInfo& info, Coord m) const;
  /// One net's entry of `geometry()`.
  [[nodiscard]] NetGeometry geometryOf(Index net) const;
  /// Index of the interval record a path endpoint landed on (-1 if none).
  [[nodiscard]] int recOf(const NetInfo& info, int nodeId) const;

  const db::Design& design_;
  RoutingGrid grid_;
  obs::Collector* obs_ = nullptr;
  MazeRouter maze_;
  std::vector<NetInfo> infos_;
  std::vector<NetState> states_;

  NetPlan plan_;  ///< routeNet's plan, reused across calls

  // ---- commitPlan's buffers, reused across commits ----
  /// Window-local node bitmap, both layers, each row padded to whole words.
  std::vector<std::uint64_t> bits_;
  std::vector<Node> extension_;        ///< line-end extension nodes

  // ---- sharingNets' state ----
  /// Per net: re-check at the next sharingNets (committed since the last
  /// call, or sharing at it).
  std::vector<char> recheck_;
  std::vector<Index> sharing_;          ///< the last call's answer
  /// Per coarse cell: holds a node that became shared since the last call
  /// (all clear between calls).
  std::vector<char> hotCell_;
  int cellCols_ = 0;  ///< coarse cells per row
};

}  // namespace cpr::route
