/// \file ids.h
/// Strong index types for the panel-local solver hot path.
///
/// A `PanelKernel` juggles four distinct dense index spaces — pins,
/// candidate intervals, conflict sets, and panel-local tracks — and before
/// this header they were all the same `geom::Index`, so a transposed
/// argument or a pin id used to subscript a per-interval column compiled
/// silently. Each space now gets its own explicit-constructor wrapper; the
/// only sanctioned conversion to a container subscript is `idx()`, and the
/// `INDEX-CAST` lint rule forbids raw `static_cast<std::size_t>` index math
/// in the kernel/solver files so every conversion flows through here.
///
/// The wrappers are a single `geom::Index` wide, trivially copyable, and
/// totally ordered, so `std::vector<CandIdx>` / `std::span<const PinIdx>`
/// have the exact layout and codegen of their raw counterparts (the
/// micro-kernel bench pins this at ±2%). Raw ids cross the boundary only at
/// the `Assignment` interface via `value()` and the explicit constructors.
#pragma once

#include <compare>
#include <cstddef>

#include "geom/types.h"

namespace cpr::core {

/// Tagged dense index. `Tag` only disambiguates the type; it is never
/// instantiated.
template <class Tag>
class StrongIdx {
 public:
  /// Default-constructed ids are the sentinel ("no index").
  constexpr StrongIdx() = default;
  constexpr explicit StrongIdx(geom::Index v) : v_(v) {}
  /// Container-size entry point for `for (std::size_t ...)` loops; the
  /// narrowing mirrors the CSR build contract that every panel-local
  /// count fits an `Index`.
  constexpr explicit StrongIdx(std::size_t v)
      : v_(static_cast<geom::Index>(v)) {}

  /// The raw id, for the `Assignment` boundary.
  [[nodiscard]] constexpr geom::Index value() const { return v_; }
  /// The one sanctioned index-to-subscript conversion.
  [[nodiscard]] constexpr std::size_t idx() const {
    return static_cast<std::size_t>(v_);
  }
  [[nodiscard]] constexpr bool valid() const {
    return v_ != geom::kInvalidIndex;
  }
  [[nodiscard]] static constexpr StrongIdx invalid() { return StrongIdx{}; }

  friend constexpr auto operator<=>(StrongIdx, StrongIdx) = default;

 private:
  geom::Index v_ = geom::kInvalidIndex;
};

/// Kernel-local pin `pj` (row of the pin→candidate CSR).
using PinIdx = StrongIdx<struct PinIdxTag>;
/// Candidate access interval `Ii` (row of the interval columns; "Cand"
/// because every interval is some pin's candidate).
using CandIdx = StrongIdx<struct CandIdxTag>;
/// Conflict set `Cm` (row of the conflict→member CSR).
using ConflictIdx = StrongIdx<struct ConflictIdxTag>;
/// Panel-local track (t - panel.tracks.lo), used by interval generation's
/// per-track pin buckets.
using TrackIdx = StrongIdx<struct TrackIdxTag>;

}  // namespace cpr::core
