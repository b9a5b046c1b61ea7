/// \file lint.h
/// cpr_lint rule engine: project-invariant checks over lexed C++ sources.
///
/// Each rule has a stable ID, fires file:line diagnostics, and can be
/// silenced per line with an `allow(RULE-ID)` comment directive (prefixed
/// by the `cpr-lint:` marker) on the offending line or the line directly
/// above it. There is no blanket (file- or
/// tree-level) suppression on purpose: the repo is expected to lint clean,
/// and every exception must be visible at the exact line it excuses. The
/// rule table lives in DESIGN.md ("Static analysis & contracts").
///
/// Some rules ignore allow directives entirely: the architecture-graph
/// rules (LAYER-*/DEAD-HEADER, see arch.h) and the deadlock-shaped
/// concurrency rules LOCK-ORDER / LOCK-BLOCKING-CALL (concurrency.h) —
/// their sanctioned escape hatches are manifest/annotation changes, not
/// per-line pragmas.
///
/// Scoping is path-based: `relPath` must be the repo-relative path with
/// forward slashes (e.g. "src/core/panel_kernel.cpp"); several rules only
/// apply under src/core, to src/core/panel_kernel.{h,cpp}, or to headers.
///
/// A discarded `Status` / `Outcome<T>` is not a lint rule: both classes are
/// `[[nodiscard]]` and every build compiles with -Werror=unused-result.
#pragma once

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace cpr::lint {

struct LayerManifest;  // arch.h

struct Diagnostic {
  std::string rule;
  std::string file;
  int line = 0;
  std::string message;
};

struct RuleInfo {
  std::string_view id;
  std::string_view summary;
};

/// Stable rule registry, in severity-agnostic alphabetical order.
[[nodiscard]] const std::vector<RuleInfo>& ruleTable();

/// Lints one translation unit (a single-file lintFiles call, so per-file
/// rules and the concurrency pass run; the architecture pass needs the
/// whole set and does not). Diagnostics come back sorted by line then
/// rule ID; suppressed findings are dropped and stale `allow(...)`
/// directives surface as ALLOW-UNUSED.
[[nodiscard]] std::vector<Diagnostic> lintSource(const std::string& relPath,
                                                 std::string_view source);

/// One in-memory file for lintFiles: the repo-relative path (forward
/// slashes) plus its full source text.
struct SourceFile {
  std::string relPath;
  std::string source;
};

/// Aggregate numbers lintFiles/lintTree expose for the machine-readable
/// report (`--report` emits them as obs counters).
struct LintStats {
  long callGraphEdges = 0;  ///< hot-path pass: unique resolved call edges
};

/// Lints a whole file set: per-file rules on every file, the concurrency
/// pass (GUARDED-BY / LOCK-BLOCKING-CALL / LOCK-ORDER / THREAD-LIFECYCLE,
/// see concurrency.h) and the hot-path call-graph pass (HOT-ALLOC /
/// HOT-THROW / HOT-BLOCKING, see hotpath.h) over the whole set, then —
/// when a `manifest` is supplied — the architecture-graph pass
/// (LAYER-VIOLATION / LAYER-FORBIDDEN / LAYER-CYCLE / DEAD-HEADER, see
/// arch.h) over the include graph of the set. The blocking-call and
/// allocation manifests are compiled in (builtinBlockingManifest(),
/// builtinAllocManifest()). Architecture diagnostics, LOCK-ORDER /
/// LOCK-BLOCKING-CALL, and the HOT-* rules ignore allow directives by
/// design. Diagnostics come back grouped per file in input order, sorted by
/// line then rule within a file. `stats`, when non-null, receives pass
/// aggregates (call-graph edge count).
[[nodiscard]] std::vector<Diagnostic> lintFiles(
    const std::vector<SourceFile>& files,
    const LayerManifest* manifest = nullptr, LintStats* stats = nullptr);

/// Walks `subdirs` under `rootDir`, lints every C++ source file
/// (.h/.hpp/.cpp/.cc/.cxx), and concatenates the per-file diagnostics in
/// path-sorted order. Directories named build*, corpus, lint_corpus, or
/// starting with '.' are skipped. When `scannedFiles` is non-null it
/// receives the repo-relative path of every file visited. When `manifest`
/// is non-null the architecture-graph pass runs over the whole walked set.
/// `stats` is forwarded to lintFiles.
[[nodiscard]] std::vector<Diagnostic> lintTree(
    const std::filesystem::path& rootDir, const std::vector<std::string>& subdirs,
    std::vector<std::string>* scannedFiles = nullptr,
    const LayerManifest* manifest = nullptr, LintStats* stats = nullptr);

/// Result of removing stale allow directives from one source text.
struct StripAllowResult {
  std::string source;  ///< rewritten text
  int removed = 0;     ///< directives actually removed
};

/// Removes the `cpr-lint:` comment directive from each 1-based line in
/// `lines` (the lines of ALLOW-UNUSED findings). Only the comment carrying
/// the marker is removed; code sharing the line survives, and a line left
/// whitespace-only is dropped entirely. Backs `cpr_lint --fix-stale-allows`.
[[nodiscard]] StripAllowResult stripAllowDirectives(
    std::string_view source, const std::vector<int>& lines);

}  // namespace cpr::lint
