/// \file thread_pool.h
/// Reusable worker pool with a blocking `parallelFor`, shared by the panel
/// optimizer and the negotiation router.
///
/// A pool owns `size() - 1` persistent worker threads; the calling thread
/// participates as worker 0, so `ThreadPool(1)` runs everything inline with
/// no thread machinery at all. `parallelFor(count, body)` hands out item
/// indices through an atomic cursor (dynamic scheduling — cheap items and
/// expensive items mix freely), blocks until every item ran, and rethrows
/// the first exception a body raised (remaining items are abandoned, the
/// pool stays usable). The worker index passed to the body is stable in
/// [0, size()) for the duration of one `parallelFor`, which is what lets
/// callers keep one scratch arena per worker and reuse it across calls.
///
/// Determinism contract: the pool itself never reorders *results* — callers
/// write to per-item slots and merge in item order afterwards, exactly the
/// PanelKernel discipline. Nothing here depends on the thread count except
/// wall-clock time.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "support/thread_annotations.h"

namespace cpr::support {

class ThreadPool {
 public:
  /// `threads <= 0` asks for one worker per hardware thread; the result is
  /// always clamped to at least 1.
  explicit ThreadPool(int threads = 0);
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;
  /// Wakes the idle workers and joins them.
  ~ThreadPool();

  /// Number of workers, including the calling thread. Always >= 1.
  [[nodiscard]] int size() const { return size_; }

  /// Resolves a requested thread count the way the pool constructor does:
  /// <= 0 means hardware concurrency, and the result is at least 1.
  [[nodiscard]] static int clampThreads(int requested);

  /// Runs `body(worker, item)` for every item in [0, count). Blocks until
  /// all items completed (or an exception abandoned the rest). `worker` is
  /// in [0, size()); item order within a worker is unspecified. The first
  /// exception thrown by a body is rethrown here after the pool quiesces.
  /// Not reentrant: a body must not call parallelFor on the same pool.
  void parallelFor(std::size_t count,
                   const std::function<void(int, std::size_t)>& body)
      CPR_EXCLUDES(mu_) CPR_NO_THREAD_SAFETY_ANALYSIS;

 private:
  void workerLoop(int worker) CPR_EXCLUDES(mu_) CPR_NO_THREAD_SAFETY_ANALYSIS;
  /// Pulls items off the shared cursor until the range is exhausted; stores
  /// the first exception and abandons the remaining items.
  void runShare(int worker);

  int size_ = 1;
  /// size_ - 1 spawned threads; joined by the destructor after stop_.
  std::vector<std::thread> workers_ CPR_THREAD_REAPER;

  std::mutex mu_;
  std::condition_variable wake_;  ///< signals a new job (or shutdown)
  std::condition_variable done_;  ///< signals spawned workers finished a job
  long generation_ CPR_GUARDED_BY(mu_) = 0;  ///< job sequence number
  /// Spawned workers still in runShare.
  int busy_ CPR_GUARDED_BY(mu_) = 0;
  bool stop_ CPR_GUARDED_BY(mu_) = false;

  // Current job; set under mu_ before the generation bump, read by workers
  // only after they observe the bump.
  std::atomic<std::size_t> next_{0};
  std::size_t count_ = 0;
  const std::function<void(int, std::size_t)>* body_ = nullptr;
  std::exception_ptr error_ CPR_GUARDED_BY(mu_);  ///< first body exception
};

}  // namespace cpr::support
