/// \file layer.h
/// Routing layer model for unidirectional lower-metal routing.
///
/// The paper routes nets on a three-layer stack (Fig. 1): M1 carries standard
/// cell I/O pins only, M2 is a horizontal unidirectional routing layer, M3 is
/// vertical. V1 connects M1-M2 and V2 connects M2-M3.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "geom/types.h"

namespace cpr::db {

enum class Layer : std::uint8_t {
  M1 = 0,  ///< pin layer; no routing
  M2 = 1,  ///< horizontal unidirectional routing
  M3 = 2,  ///< vertical unidirectional routing
};

inline constexpr int kNumLayers = 3;

enum class Dir : std::uint8_t { Horizontal, Vertical, None };

/// Preferred (and, for unidirectional routing, the only legal) direction.
constexpr Dir direction(Layer l) {
  switch (l) {
    case Layer::M1: return Dir::None;
    case Layer::M2: return Dir::Horizontal;
    case Layer::M3: return Dir::Vertical;
  }
  return Dir::None;
}

constexpr std::string_view name(Layer l) {
  constexpr std::array<std::string_view, kNumLayers> kNames{"M1", "M2", "M3"};
  return kNames[static_cast<std::size_t>(l)];
}

constexpr int index(Layer l) { return static_cast<int>(l); }

// ---- design rules of the unidirectional stack (paper Section 4) ----
// Every metal run gets `kLineEndExtension` grids of extra metal at both
// ends, and the router commits that extension as metal. Pin access
// conflict detection inflates every interval by the same amount per side,
// so selected diff-net intervals keep room for both extensions. The SADP
// checker therefore reads the shipped runs as they are: two diff-net runs
// on one lane violate it only when they share a grid (a line-end gap of 0).
// Two same-level diff-net vias on one track violate it when they are at
// most `kViaSpacing` grids apart; the router prices exactly those sites
// with the forbidden-via cost. Every via sits on M2 metal of its own net,
// which reaches `kLineEndExtension` grids past it, so while `kViaSpacing <=
// kLineEndExtension` a via-spacing violation also puts two nets on one
// grid. The negotiated router drops every net still sharing a grid, which
// keeps its output DRC-clean without a repair stage.

/// Line-end extension committed at both ends of every run, in grids.
inline constexpr geom::Coord kLineEndExtension = 1;
/// Same-track, same-level diff-net vias need |dx| > kViaSpacing.
inline constexpr geom::Coord kViaSpacing = 1;
static_assert(kViaSpacing <= kLineEndExtension,
              "via spacing wider than the line-end extension lets negotiated "
              "output break the via rule without sharing a grid");

}  // namespace cpr::db
