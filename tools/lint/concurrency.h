/// \file concurrency.h
/// Concurrency analysis for cpr_lint: the whole-tree pass that turns the
/// annotation vocabulary of src/support/thread_annotations.h plus the
/// statement-level lock regions of lint/ir.h into four rules:
///
///   GUARDED-BY          a field annotated CPR_GUARDED_BY(mu) is read or
///                       written outside a region holding `mu` (and outside
///                       a function annotated CPR_REQUIRES(mu))
///   LOCK-BLOCKING-CALL  a call from the blocking manifest
///                       (builtinBlockingManifest: socket I/O, sleeps,
///                       join/drain) happens while a
///                       lock region is open — unless every held mutex is
///                       annotated CPR_MAY_BLOCK (a lock that exists to
///                       serialize I/O, like a per-connection write lock)
///   LOCK-ORDER          the whole-tree lock acquisition graph (nested
///                       regions plus calls into CPR_EXCLUDES/CPR_ACQUIRE
///                       functions while holding a lock) contains a cycle;
///                       a self-loop means calling a function that acquires
///                       a mutex the caller already holds
///   THREAD-LIFECYCLE    a local std::thread that can reach end of scope
///                       neither joined, detached, nor moved away; a bare
///                       std::thread temporary; or a thread-owning field
///                       without a CPR_THREAD_REAPER annotation
///
/// Like the architecture pass, LOCK-ORDER and LOCK-BLOCKING-CALL are NOT
/// suppressible with per-line allow directives: a deadlock-order exception
/// is an annotation change (CPR_MAY_BLOCK on the serializing mutex), made
/// visible at the mutex declaration, never a per-line pragma. GUARDED-BY
/// and THREAD-LIFECYCLE accept allows like the per-file rules.
///
/// Mutex identity across the tree is resolved structurally: a bare name in
/// a member function binds to the enclosing class's mutex field; a
/// `x.y` / `x->y` spelling binds to the unique class declaring a mutex
/// field `y`. That keeps one graph node per mutex *field* no matter which
/// object expression a call site spells.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "lint/ir.h"
#include "lint/lint.h"

namespace cpr::lint {

/// The blocking-call manifest LOCK-BLOCKING-CALL and HOT-BLOCKING share:
/// identifiers naming calls that can block the calling thread — socket I/O
/// (send/recv/accept/connect/poll/select), sleeps
/// (sleep/usleep/nanosleep/sleep_for/sleep_until), thread join, and the
/// project's own blocking seams (drain, parallelFor, sendToConn,
/// sendLocked, pop). Teaching the linter a new blocking seam is an edit to
/// this list (concurrency.cpp); the rules never change.
[[nodiscard]] const std::set<std::string>& builtinBlockingManifest();

/// One scanned file as the concurrency pass sees it: the token stream and
/// the declaration IR built from it (both borrowed, not owned).
struct ConcFile {
  std::string relPath;  ///< repo-relative, forward slashes
  const std::vector<Token>* toks = nullptr;
  const FileIr* ir = nullptr;
};

/// Runs the four concurrency rules over the whole file set. Annotations
/// are collected globally first (a header's CPR_REQUIRES applies to the
/// out-of-line definition in its .cpp), then every function body is
/// checked and the lock graph is searched for cycles. Diagnostics come
/// back sorted by file, line, then rule.
[[nodiscard]] std::vector<Diagnostic> checkConcurrency(
    const std::vector<ConcFile>& files);

}  // namespace cpr::lint
