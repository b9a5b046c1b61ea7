#include "support/thread_pool.h"

namespace cpr::support {

int ThreadPool::clampThreads(int requested) {
  if (requested > 0) return requested;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw > 0 ? hw : 1;
}

ThreadPool::ThreadPool(int threads) : size_(clampThreads(threads)) {
  workers_.reserve(static_cast<std::size_t>(size_ - 1));
  for (int w = 1; w < size_; ++w)
    workers_.emplace_back([this, w] { workerLoop(w); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::runShare(int worker) {
  for (std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
       i < count_; i = next_.fetch_add(1, std::memory_order_relaxed)) {
    try {
      (*body_)(worker, i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
      // Abandon the remaining items: park the cursor past the end so every
      // worker (including the caller) drains out promptly.
      next_.store(count_, std::memory_order_relaxed);
    }
  }
}

void ThreadPool::workerLoop(int worker) {
  long seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    runShare(worker);
    {
      std::lock_guard<std::mutex> lock(mu_);
      --busy_;
    }
    done_.notify_one();
  }
}

void ThreadPool::parallelFor(
    std::size_t count, const std::function<void(int, std::size_t)>& body) {
  if (count == 0) return;
  std::exception_ptr pending;
  if (size_ == 1) {
    // Inline fast path: no signalling; the lock below only claims the
    // exception slot runShare may have filled.
    count_ = count;
    body_ = &body;
    next_.store(0, std::memory_order_relaxed);
    runShare(0);
    std::lock_guard<std::mutex> lock(mu_);
    pending = error_;
    error_ = nullptr;
  } else {
    {
      std::lock_guard<std::mutex> lock(mu_);
      count_ = count;
      body_ = &body;
      next_.store(0, std::memory_order_relaxed);
      error_ = nullptr;
      busy_ = size_ - 1;
      ++generation_;
    }
    wake_.notify_all();
    runShare(0);
    std::unique_lock<std::mutex> lock(mu_);
    done_.wait(lock, [&] { return busy_ == 0; });
    pending = error_;
    error_ = nullptr;
  }
  body_ = nullptr;
  if (pending) std::rethrow_exception(pending);
}

}  // namespace cpr::support
