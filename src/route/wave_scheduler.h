/// \file wave_scheduler.h
/// Deterministic partitioning of a net list into parallel-safe waves.
///
/// The negotiation router searches many nets concurrently against one
/// immutable grid, then commits serially. A wave is a set of nets whose
/// *influence boxes* — the search window plus every halo a search reads or
/// a commit writes (adjacency and forbidden-via lookups reach one grid out,
/// line-end extensions are committed beyond the run) — are pairwise
/// disjoint. Within a wave, no net's search can observe another wave-mate's
/// rip or commit, so routing a wave in parallel produces bit-identical
/// results to routing it sequentially in wave order, for any thread count.
///
/// Partitioning is multi-pass greedy over the input order: each pass scans
/// the still-unassigned nets, admitting every net whose box does not touch
/// a box already admitted to the pass's wave. Overlap is tested against a
/// coarse tile bitmap (conservative: two boxes sharing a tile are treated
/// as overlapping, which only ever defers a net — never unsafely co-routes
/// it). The result depends only on the input order and the boxes, never on
/// thread scheduling.
#pragma once

#include <vector>

#include "geom/rect.h"
#include "geom/types.h"
#include "support/hot_annotations.h"

namespace cpr::route {

class WaveScheduler {
 public:
  /// Tiles the `width` x `height` grid for the overlap bitmap.
  WaveScheduler(geom::Coord width, geom::Coord height);

  /// Splits `nets` into waves of pairwise-disjoint influence boxes.
  /// `boxes[k]` is net `nets[k]`'s influence box (already expanded by the
  /// caller's halo). Input order is preserved inside each wave, and the
  /// concatenation of all waves is a permutation of `nets`.
  [[nodiscard]] std::vector<std::vector<geom::Index>> partition(
      const std::vector<geom::Index>& nets,
      const std::vector<geom::Rect>& boxes) CPR_HOT;

  /// Deferrals during the last `partition` call: the number of times a net
  /// had to wait for a later wave because its box touched the current wave.
  [[nodiscard]] long conflicts() const { return conflicts_; }

 private:
  [[nodiscard]] bool tryClaim(const geom::Rect& box, long wave) CPR_HOT;

  /// Tile side of the overlap bitmap, in grids: trades partition sharpness
  /// against bitmap size; suits row heights of a few tracks.
  static constexpr geom::Coord kTile = 16;

  int tilesX_ = 0;
  int tilesY_ = 0;
  std::vector<long> claimed_;  ///< wave id per tile (epoch-style, no clears)
  long waveId_ = 0;
  long conflicts_ = 0;
};

}  // namespace cpr::route
