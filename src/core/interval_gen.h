/// \file interval_gen.h
/// Track-based pin access interval generation (paper Section 3.1).
///
/// For a pin `p` on an M2 track `t`, candidate intervals are all strips
/// [le, re] covering p's columns where `le` is either the net-bounding-box
/// left edge or the cut line (x.hi + 1) of a diff-net pin left of p, and `re`
/// symmetric on the right — O(m·n) intervals for m left / n right diff-net
/// pins — plus the minimum interval (the smallest strip covering the pin).
/// All candidates are clipped to the free space on the track (die minus M2
/// blockages) and to the net bounding box; identical same-net intervals
/// generated from several pins (intra-panel connections, Fig. 3(b)) are
/// deduplicated into one candidate associated with every covered pin.
///
/// Conflict detection inflates every candidate by `db::kLineEndExtension`
/// columns per side, so selected diff-net intervals keep room for the
/// router's line-end extensions (Section 4). Theorem 1's feasibility
/// argument then requires same-track diff-net pins to be more than twice
/// that many columns apart, which real cell layouts (and the generator's
/// `pinSeparation`) guarantee.
#pragma once

#include <span>

#include "core/panel_kernel.h"
#include "db/design.h"
#include "db/panel.h"
#include "obs/collector.h"

namespace cpr::core {

struct GenOptions {
  /// Footnote 1 of the paper: cap the interval extent around the pin when M2
  /// routing is not favored for long nets. 0 disables the cap; otherwise the
  /// net bounding box is intersected with pin.x expanded by this many
  /// columns on each side.
  geom::Coord maxExtent = 0;
  /// Base profit f(Ii) (Section 3.3; default sqrt(span)).
  ProfitModel profitModel = ProfitModel::SqrtSpan;
};

/// Builds the interval-assignment instance over `panels`: candidates per
/// pin (Section 3.1), then conflict sets (3.2), in one kernel. Several
/// panels make one merged instance ("handle multiple panels simultaneously",
/// Section 3); panels never share tracks, so their candidates interact only
/// through solver-side accounting, which is what the Fig. 6 sweep measures.
/// Pins whose every track is blocked get an empty candidate set and an
/// invalid `minimalIntervalOf`.
/// A non-null `obs` receives the `gen.*` counters (emitted / shared
/// intervals, blocked pins), `conflict.sets`, and the `pao.gen`,
/// `pao.conflict` and `pao.compile` spans.
[[nodiscard]] PanelKernel buildPanelKernel(const db::Design& design,
                                           std::span<const db::Panel> panels,
                                           const GenOptions& opts = {},
                                           obs::Collector* obs = nullptr);

}  // namespace cpr::core
