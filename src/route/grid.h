/// \file grid.h
/// The unidirectional routing grid: M2 (horizontal) and M3 (vertical) nodes
/// over the die, with an owner map (blockages, pin projections and access
/// intervals folded into one word per M2 node), M3 blockages, occupancy,
/// history and via maps. DESIGN.md "Routing grid layout" has the byte
/// budget.
///
/// Node addressing: a routable node is (layer, x, y) with layer ∈ {M2, M3},
/// x ∈ [0, width), y ∈ [0, height) (y is the global M2 track index; M3 uses
/// the same y granularity so a V2 via joins (M2,x,y)–(M3,x,y)). Nodes pack
/// into a dense int id = layer*W*H + y*W + x for flat-array state.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/optimizer.h"
#include "db/design.h"
#include "geom/types.h"
#include "support/contracts.h"

namespace cpr::route {

using geom::Coord;
using geom::Index;

enum class RLayer : std::uint8_t { M2 = 0, M3 = 1 };

/// M2 owner code: the node's last pin projection and last access interval
/// belong to different nets. No net may enter, yet it is not a blockage.
/// Like kBlockedOwner it is negative, so it never equals a net id.
inline constexpr Index kContestedOwner = -2;
/// M2 owner code of a blockage.
inline constexpr Index kBlockedOwner = -3;

/// Row decode without division, shared by `RoutingGrid::node` and the maze
/// arena's box-local ids: for a row width `w ≥ 1`, `rowMagic(w)` is
/// M = ceil(2^63 / w), and `rowOf(rem, M)` is `rem * M >> 63`. With
/// e = M·w − 2^63 < w, the product overshoots rem / w by rem·e / (w·2^63),
/// less than 1/w for every rem < 2^31, so the floor is exact for every
/// width, 1 included (M = 2^63 still fits; DESIGN.md §13).
[[nodiscard]] constexpr std::uint64_t rowMagic(Coord w) {
  return ((std::uint64_t{1} << 63) - 1) / static_cast<std::uint64_t>(w) + 1;
}
[[nodiscard]] constexpr Coord rowOf(std::uint32_t rem, std::uint64_t magic) {
  return static_cast<Coord>((static_cast<unsigned __int128>(rem) * magic) >>
                            63);
}

struct Node {
  RLayer layer = RLayer::M2;
  Coord x = 0;
  Coord y = 0;

  friend constexpr bool operator==(const Node&, const Node&) = default;
};

class RoutingGrid {
 public:
  /// Builds static state from the design: M2/M3 blockages and the
  /// projection of every pin onto M2 (pin x-range × track-range). When
  /// `plan` is non-null, each assigned pin access interval is also recorded
  /// so routers can treat other nets' intervals as blockages (Section 4).
  /// The M2 owner is the net of the last pin and of the last interval
  /// covering the node (in pin order), kContestedOwner when those two
  /// disagree, and kBlockedOwner under a blockage.
  RoutingGrid(const db::Design& design, const core::PinAccessPlan* plan);

  [[nodiscard]] Coord width() const { return w_; }
  [[nodiscard]] Coord height() const { return h_; }
  [[nodiscard]] int numNodes() const { return 2 * planeSize(); }
  [[nodiscard]] int planeSize() const { return static_cast<int>(w_) * h_; }

  [[nodiscard]] int id(const Node& n) const {
    return static_cast<int>(n.layer) * planeSize() + n.y * w_ + n.x;
  }
  /// Decodes an id with no division (`rowOf`).
  [[nodiscard]] Node node(int id) const {
    const int plane = planeSize();
    const bool m3 = id >= plane;
    const auto rem = static_cast<std::uint32_t>(m3 ? id - plane : id);
    const Coord y = rowOf(rem, rowMagic_);
    return Node{m3 ? RLayer::M3 : RLayer::M2,
                static_cast<Coord>(rem) - y * w_, y};
  }
  [[nodiscard]] bool inside(Coord x, Coord y) const {
    return x >= 0 && x < w_ && y >= 0 && y < h_;
  }

  // ---- static obstacles ----
  /// True under a blockage only; a contested M2 node is not blocked.
  [[nodiscard]] bool blocked(int id) const {
    const int plane = planeSize();
    return id < plane ? owner_[static_cast<std::size_t>(id)] == kBlockedOwner
                      : m3Blocked_[static_cast<std::size_t>(id - plane)] != 0;
  }
  /// Which nets may enter this M2 node: kInvalidIndex (any), a net id (only
  /// that net), kContestedOwner or kBlockedOwner (none).
  [[nodiscard]] Index owner(int m2id) const {
    return owner_[static_cast<std::size_t>(m2id)];
  }

  // ---- congestion state ----
  // A node is overused (shared) when more than one net occupies it. The
  // grid keeps the count of overused nodes and a list that holds each of
  // them once, both updated in addOcc/removeOcc, so nothing below scans the
  // grid. The list may also hold nodes that stopped being overused since
  // the last compaction (readers check `occupancy > 1`); compactions drop
  // them, and addOcc runs one whenever stale entries outnumber live ones by
  // 64, so the list stays O(overused) even for a caller that never marks or
  // accrues. No reader depends on the list's order.
  [[nodiscard]] int occupancy(int id) const {
    return occ_[static_cast<std::size_t>(id)] & kOccMask;
  }
  void addOcc(int id) {
    std::uint16_t& o = occ_[static_cast<std::size_t>(id)];
    CPR_DCHECK((o & kOccMask) < kOccMask);
    if ((++o & kOccMask) == 2) noteOverused(id, o);
  }
  void removeOcc(int id) {
    std::uint16_t& o = occ_[static_cast<std::size_t>(id)];
    CPR_DCHECK((o & kOccMask) > 0);
    if ((o-- & kOccMask) == 2) --overused_;
  }
  /// Rip-up & reroute iterations in which this node was overused.
  [[nodiscard]] int history(int id) const { return hist_[static_cast<std::size_t>(id)]; }
  /// Adds one to the history of every node currently shared by more than
  /// one net, walking only the overused list. A count is 8 bits:
  /// `routeNegotiated` calls this once per rip-up & reroute iteration and
  /// allows at most 255 iterations.
  void accrueHistory();

  /// Number of nodes currently shared by more than one net.
  [[nodiscard]] long congestedNodeCount() const { return overused_; }

  /// Starts a new sharing epoch: `sharedSinceMark()` becomes empty.
  void markShared();
  /// A superset of the nodes that are overused now but were not at the
  /// last `markShared` (every overused node before the first mark). It may
  /// also hold nodes that are no longer overused, or were already.
  [[nodiscard]] std::span<const int> sharedSinceMark() const {
    return std::span<const int>(overusedList_).subspan(mark_);
  }

  // ---- via sites (for the forbidden-via-grid cost and via spacing DRC) ----
  /// Registers/unregisters a V1 or V2 via of `net` at column x, track y.
  void addVia(Coord x, Coord y, Index net);
  void removeVia(Coord x, Coord y, Index net);
  /// True when a different net owns a via within `db::kViaSpacing` columns
  /// of (x, y) on the same track — the router charges the paper's forbidden
  /// grid cost (10) there.
  [[nodiscard]] bool viaForbidden(Coord x, Coord y, Index net) const;

  /// Bytes of per-node state (every array above), for `route.grid_bytes`.
  [[nodiscard]] std::size_t footprintBytes() const;

 private:
  /// Occupancy word: the count of nets in the low 15 bits, and the flag
  /// "listed in overusedList_" in the top bit.
  static constexpr std::uint16_t kOccMask = 0x7fff;
  static constexpr std::uint16_t kListed = 0x8000;

  /// addOcc's 1 → 2 step: counts the node and lists it unless it is listed.
  void noteOverused(int id, std::uint16_t& occ);
  /// Drops the entries that are no longer overused, keeping the order of
  /// the rest (and so the mark's meaning).
  void compact();

  Coord w_ = 0;
  Coord h_ = 0;
  std::uint64_t rowMagic_ = 0;          ///< rowMagic(w_), for node()
  std::vector<Index> owner_;            ///< per M2 node
  std::vector<std::uint8_t> m3Blocked_; ///< per M3 node
  std::vector<std::uint16_t> occ_;      ///< per node: count | kListed
  std::vector<std::uint8_t> hist_;      ///< per node
  std::vector<Index> viaNet_;           ///< per (x,y): owning net or invalid
  std::vector<std::uint8_t> viaCount_;  ///< per (x,y)
  long overused_ = 0;                   ///< nodes with occupancy > 1
  std::vector<int> overusedList_;       ///< each kListed node once
  std::size_t mark_ = 0;                ///< list entries before the mark
};

}  // namespace cpr::route
