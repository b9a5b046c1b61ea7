/// \file generator.h
/// Synthetic standard-cell design generation.
///
/// The paper evaluates on the PARR [12] benchmark suite (ecc, efc, ctl, alu,
/// div, top), which is not publicly available. This generator synthesizes
/// placed designs matched on the published knobs — net count, die size, 10
/// M2 tracks per row, short local nets — so that the pin access competition
/// structure (pins per panel, diff-net pins sharing tracks, net bounding box
/// overlap) exercises the same code paths the paper measures. See DESIGN.md
/// §4 for the substitution rationale.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "db/design.h"

namespace cpr::gen {

using db::Coord;

struct GenOptions {
  std::string name = "synth";
  std::uint64_t seed = 1;
  Coord width = 200;        ///< grid columns
  Coord numRows = 10;
  Coord tracksPerRow = 10;  ///< the paper's panel height
  /// Fraction of columns per row carrying a pin (routing competition knob).
  double pinDensity = 0.25;
  /// Minimum column distance between same-row pins. Must exceed twice the
  /// line-end extension (db::kLineEndExtension), by which pin access
  /// conflict detection inflates every interval, for Theorem 1's
  /// feasibility argument to hold.
  Coord pinSeparation = 3;
  /// M2 tracks an M1 pin strip crosses (its candidate access tracks). Fewer
  /// tracks = fewer accessing points = sharper pin access interference
  /// (paper Section 1: "smaller number of accessing points").
  Coord minPinTracks = 3;
  Coord maxPinTracks = 6;
  int minPinsPerNet = 2;
  int maxPinsPerNet = 4;
  /// Maximum column distance between pins of one net (net locality; lower
  /// metal layers are "primarily reserved for short nets", Section 1).
  Coord maxNetSpan = 40;
  /// Rows a net may straddle above/below its seed pin.
  Coord maxNetRowSpread = 1;
  /// Expected number of M2 blockage strips per row (cell-internal metal).
  double blockagesPerRow = 1.0;
  Coord maxBlockageLen = 12;
  /// Block the first and last track of every row with a full-width M2 strip:
  /// the synthesized power/ground rails that separate the die into panels
  /// (paper Section 3).
  bool powerRails = true;
  /// M3 track pitch in columns: vertical routing is only available every
  /// `m3Pitch`-th column (upper layers are coarser than M2 in real stacks).
  Coord m3Pitch = 2;
};

/// Generates a deterministic random design. Guarantees: pins have disjoint
/// shapes (distinct columns per row), every pin keeps at least one
/// unblocked track, every net has >= 2 pins, and the design validates.
[[nodiscard]] db::Design generate(const GenOptions& opts);

/// Published parameters of one paper benchmark (Table 2 columns 1-3).
struct SuiteSpec {
  std::string name;
  int nets;          ///< paper's Net#
  double widthUm;    ///< die width, micrometres
  double heightUm;   ///< die height, micrometres
};

/// The six designs of Table 2: ecc, efc, ctl, alu, div, top.
[[nodiscard]] const std::vector<SuiteSpec>& paperSuite();

/// Builds the synthetic stand-in for one paper benchmark: die dimensions are
/// converted to grid units at a 48 nm track pitch and nets are generated
/// until the published net count is met.
[[nodiscard]] db::Design makeSuiteDesign(const SuiteSpec& spec,
                                         std::uint64_t seed = 7);

/// Expert variant: derives die dimensions and net count from `spec` but
/// takes every other knob (seed, net sizes, blockages, M3 pitch, ...) from
/// `base`. Used by calibration and ablation benches.
[[nodiscard]] db::Design makeSuiteDesign(const SuiteSpec& spec,
                                         const GenOptions& base);

/// Convenience: spec lookup by name ("ecc", ..., "top"); throws
/// std::invalid_argument for unknown names.
[[nodiscard]] const SuiteSpec& suiteSpec(const std::string& name);

}  // namespace cpr::gen
