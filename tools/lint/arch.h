/// \file arch.h
/// Architecture-graph analysis for cpr_lint: the whole-tree pass that turns
/// per-file `#include` declarations (lint/ir.h) into layer diagnostics.
///
/// The layer manifest (tools/lint/layers.txt) names the modules under src/
/// bottom-up; an include edge may only point sideways (same line of the
/// manifest) or downwards. `everywhere` modules (support, obs) are
/// importable from any layer but must themselves stay leaves. Three rules
/// come out of the graph:
///
///   LAYER-VIOLATION  an include edge pointing at a higher layer, a module
///                    missing from the manifest, or an everywhere module
///                    reaching into the layered stack
///   LAYER-FORBIDDEN  a module reaching a header its `forbid:` manifest line
///                    bans, directly or through any include chain (used to
///                    keep engine headers private behind an interface seam)
///   LAYER-CYCLE      a cycle in the file-level include graph
///   DEAD-HEADER      a header under src/ that no scanned file includes
///
/// Architecture diagnostics are deliberately NOT suppressible with the
/// per-line allow directives: a layering exception is a manifest change,
/// made visible in layers.txt, never a per-line pragma.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lint/ir.h"
#include "lint/lint.h"

namespace cpr::lint {

/// Parsed form of tools/lint/layers.txt. Grammar (one entry per line,
/// '#' comments, blank lines ignored):
///
///   everywhere: support obs      # importable by all layers; must be leaves
///   geom                         # level 0 (bottom)
///   db
///   gen lefdef ilp               # same-level modules may include each other
///   core
///   route eval viz               # top
///   forbid: core ilp/revised_simplex.h   # module must not reach this header
///
/// A `forbid:` line names one module and one include path (as spelled in
/// `#include` directives): no file of that module may include the header,
/// directly or transitively. Layer direction alone cannot express this —
/// `core` may include `ilp`, but only through `branch_and_bound.h`, never
/// the concrete LP engine header.
struct LayerManifest {
  static constexpr int kEverywhere = -1;
  static constexpr int kUnknown = -2;

  struct Forbid {
    std::string module;   ///< manifest module the ban applies to
    std::string include;  ///< include path, e.g. "ilp/revised_simplex.h"
  };

  std::vector<std::string> everywhere;
  std::vector<std::vector<std::string>> levels;  ///< bottom-up
  std::vector<Forbid> forbids;

  /// Level index of `module` (0 = bottom), kEverywhere for everywhere
  /// modules, kUnknown for modules the manifest does not name.
  [[nodiscard]] int levelOf(std::string_view module) const;
};

/// Parses manifest text. On failure returns false and describes the problem
/// in `error`.
[[nodiscard]] bool parseLayerManifest(std::string_view text,
                                      LayerManifest& out, std::string& error);

/// Reads and parses a manifest file; false on I/O or parse failure.
[[nodiscard]] bool loadLayerManifest(const std::string& path,
                                     LayerManifest& out, std::string& error);

/// One scanned file as the architecture pass sees it.
struct ArchFile {
  std::string relPath;  ///< repo-relative, forward slashes
  std::vector<IncludeDecl> includes;
};

/// Runs the three graph rules over the whole file set. Only files under
/// src/ form graph nodes; files elsewhere (tools, tests, bench) still count
/// as includers for DEAD-HEADER. Diagnostics come back sorted by file,
/// line, then rule.
[[nodiscard]] std::vector<Diagnostic> checkArchitecture(
    const std::vector<ArchFile>& files, const LayerManifest& manifest);

}  // namespace cpr::lint
