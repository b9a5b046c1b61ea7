/// \file hot_annotations.h
/// Hot-path discipline annotation vocabulary, consumed by `cpr_lint`'s
/// call-graph pass (tools/lint/hotpath.h). The markers carry no compiler
/// semantics — they expand to nothing on every compiler — but the linter
/// reads the spellings out of the token stream on every build and enforces
/// the performance contract they declare (DESIGN.md §16 "Hot-path
/// discipline").
///
/// Vocabulary:
///
///   CPR_HOT        function is on a scaling-critical path (per-net maze
///                  search, per-panel kernel solve, wave scheduling). The
///                  linter checks the function body AND everything
///                  transitively reachable from it through intra-project
///                  call edges for heap allocation (HOT-ALLOC), throws
///                  outside a same-function try/catch (HOT-THROW), and
///                  blocking calls from the compiled-in manifest,
///                  `builtinBlockingManifest()` in
///                  tools/lint/concurrency.cpp (HOT-BLOCKING).
///   CPR_NOALLOC    standalone allocation boundary: the body is checked
///                  for HOT-ALLOC even when no CPR_HOT root reaches it,
///                  and the hot-closure walk stops here — the callee has
///                  its own (already checked) contract. Use it on leaf
///                  utilities shared by hot and cold code.
///   CPR_COLD_OK    sanctioned cold escape hatch: the function is excluded
///                  from the hot closure entirely (no checks, no descent).
///                  Reserve it for warmup/bind paths that allocate by
///                  design, instrumentation sinks, and measurement
///                  baselines (e.g. the ILP translation layer). Each use
///                  should say why in a comment.
///
/// Unlike per-line allow directives, these markers are the ONLY
/// escape hatches for the HOT-* rules: a suppression must rename the
/// contract (visible in the signature and in review), not hide a single
/// diagnostic line. The runtime cross-check (src/support/alloc_hook.h)
/// pins the same regions to zero allocations on the bench.
#pragma once

// Lint-only markers: cpr_lint reads the spelling from the token stream;
// no compiler attribute carries these semantics, so they always expand to
// nothing.
#define CPR_HOT
#define CPR_NOALLOC
#define CPR_COLD_OK
