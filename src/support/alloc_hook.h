/// \file alloc_hook.h
/// Runtime cross-check for the static hot-path discipline (DESIGN.md §16,
/// hot_annotations.h): a counting hook the bench harness arms to prove the
/// annotated hot regions really are heap-quiet.
///
/// Two halves, deliberately split:
///
///   1. This always-linked half: a thread-local region depth (RAII
///      `HotRegion` spans the allocation-free inner loops; `HotRegionPause`
///      suspends a region around sanctioned instrumentation like obs
///      flushes) plus a process-wide armed flag and counter. When nothing
///      arms the hook, a region open/close is two thread-local integer
///      writes — cheap enough to keep in the production hot loops.
///   2. An opt-in object library (`cpr_alloc_guard`, src/support/
///      alloc_guard.cpp) that replaces global operator new/delete and calls
///      `noteAlloc()` on every allocation. Only benches and the
///      allocation-regression test link it; production binaries keep the
///      default allocator.
///
/// The bench harness arms the hook, routes the digest-pinned `top` design,
/// and emits the counter as `pao.alloc.hot_path_allocs`; CI asserts 0. By
/// construction every sanctioned allocation (scratch bind/reserve warmup,
/// result assembly, instrumentation) happens *outside* an armed region, so
/// the expected count is exactly zero from the first run — there is no
/// cross-run warmup to forgive.
#pragma once

namespace cpr::support::alloc {

/// Arms/disarms process-wide counting. Off by default.
void arm(bool on) noexcept;
[[nodiscard]] bool armed() noexcept;

/// Allocations observed inside armed hot regions since the last reset.
[[nodiscard]] long hotRegionAllocs() noexcept;
void resetHotRegionAllocs() noexcept;

/// Called by the cpr_alloc_guard operator-new replacement on every
/// allocation; counts only when armed and inside a region on this thread.
void noteAlloc() noexcept;

/// True while the calling thread is inside an unpaused HotRegion.
[[nodiscard]] bool inHotRegion() noexcept;

/// RAII span declaring "this thread allocates nothing until scope exit".
/// Nests; the thread is hot while any region is open and no pause is.
class HotRegion {
 public:
  HotRegion() noexcept;
  ~HotRegion();
  HotRegion(const HotRegion&) = delete;
  HotRegion& operator=(const HotRegion&) = delete;
};

/// RAII suspension of the current thread's hot regions, for sanctioned
/// cold islands inside a hot span (obs counter flushes, error reporting).
class HotRegionPause {
 public:
  HotRegionPause() noexcept;
  ~HotRegionPause();
  HotRegionPause(const HotRegionPause&) = delete;
  HotRegionPause& operator=(const HotRegionPause&) = delete;
};

}  // namespace cpr::support::alloc
