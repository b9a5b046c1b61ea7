/// \file conflict.h
/// Linear conflict set detection (paper Section 3.2): the reference.
///
/// A conflict set is a maximal set of pin access intervals on one track
/// whose common intersection is non-empty (a maximal clique of the track's
/// interval graph). `PanelKernelBuilder::finish` emits every maximal clique
/// exactly once with a scanline; the number of cliques is linear in the
/// number of intervals, which is what keeps the ILP constraint count (1c)
/// linear instead of the quadratic pairwise formulation. This header keeps
/// the independent brute-force enumeration the scanline is tested against.
#pragma once

#include <vector>

#include "core/panel_kernel.h"

namespace cpr::core {

/// Reference O(n^2)-per-track implementation used by tests to validate the
/// scanline: returns the maximal cliques (members ascending) computed by
/// pairwise overlap closure over spans inflated by `guard` columns per side
/// (the kernel's scanline inflates by `db::kLineEndExtension`). Cliques with
/// fewer than two members are not conflicts.
[[nodiscard]] std::vector<std::vector<CandIdx>> detectConflictsBruteForce(
    const PanelKernel& k, Coord guard);

}  // namespace cpr::core
