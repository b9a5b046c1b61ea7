/// \file hotpath.h
/// Hot-path analysis for cpr_lint: the whole-tree call-graph pass that
/// turns the annotation vocabulary of src/support/hot_annotations.h into
/// three rules:
///
///   HOT-ALLOC       heap allocation — `new`, a call from the allocation
///                   manifest (builtinAllocManifest), or container
///                   growth whose receiver was never `reserve()`d earlier
///                   in the same body — inside a CPR_HOT function or
///                   anything transitively reachable from one through
///                   intra-project call edges; also checked standalone in
///                   every CPR_NOALLOC body. Diagnostics carry the full
///                   call chain from the annotated root.
///   HOT-THROW       a `throw` statement reachable from hot code that is
///                   not inside a try/catch of the same function body (the
///                   containment idiom `Solver::trySolve` uses at the
///                   panel boundary). Contract macros are invisible here
///                   by construction: CPR_CHECK's throw lives behind the
///                   macro name, and its NDEBUG semantics are the
///                   documented escape (DESIGN.md §16).
///   HOT-BLOCKING    a call from the blocking manifest
///                   (builtinBlockingManifest, the same one
///                   LOCK-BLOCKING-CALL uses) reachable from hot
///                   code — thread-pool drains, socket I/O, and sleeps
///                   belong in the drivers *around* the hot kernels, never
///                   inside them.
///
/// Like LOCK-ORDER, the HOT-* rules are NOT suppressible with per-line
/// allow directives: the escape hatches are the annotations themselves
/// (CPR_COLD_OK excludes a function from the closure, CPR_NOALLOC stops
/// the descent at a checked boundary), visible in the signature and in
/// review.
///
/// Call edges are resolved structurally, mirroring the concurrency pass:
/// a receiver-qualified call (`x.f()` / `x->f()`) binds to the unique
/// class defining `f`; `Cls::f()` binds by qualifier (falling back to a
/// free function when `Cls` is really a namespace); a bare call binds to
/// the caller's own class first, then to a free function. Overloads share
/// a graph node — the pass checks the union of their bodies, which never
/// misses a diagnostic.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "lint/concurrency.h"
#include "lint/ir.h"
#include "lint/lint.h"

namespace cpr::lint {

/// `always` names calls that heap-allocate unconditionally (malloc,
/// make_unique, to_string, ...); `growth` names container-growth calls
/// (push_back, insert, resize, ...) that are exempt when the same receiver
/// was `reserve()`d earlier in the same function body.
struct AllocManifest {
  std::set<std::string> always;
  std::set<std::string> growth;
};

/// The allocation manifest HOT-ALLOC checks against. Teaching the linter a
/// new allocation seam is an edit to this list (hotpath.cpp); the rule
/// never changes.
[[nodiscard]] const AllocManifest& builtinAllocManifest();

/// Aggregate numbers the pass exposes for the lint report
/// (`lint.callgraph.edges`).
struct HotPathStats {
  long callGraphEdges = 0;  ///< unique resolved (caller, callee) pairs
};

/// Runs the three hot-path rules over the whole file set (the same borrowed
/// token/IR views the concurrency pass uses). Annotations and function
/// definitions are collected globally first, the call graph is built, then
/// every hot closure and CPR_NOALLOC body is checked. Diagnostics come
/// back sorted by file, line, then rule.
[[nodiscard]] std::vector<Diagnostic> checkHotPaths(
    const std::vector<ConcFile>& files, HotPathStats* stats = nullptr);

}  // namespace cpr::lint
