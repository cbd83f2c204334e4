// Fixed-size thread pool for fanning independent experiment tasks across
// hardware threads. Deliberately work-stealing-free: tasks are pulled from a
// single FIFO queue, and every task is addressed by its index, so results are
// written to pre-sized slots and parallel output is bit-identical to serial
// regardless of scheduling order or thread count (docs/ARCHITECTURE.md,
// "Determinism rules", rule 1).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace drlnoc::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers; values < 1 are clamped to 1.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task. Tasks must not touch shared mutable state unless they
  /// synchronize it themselves.
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished. If any task threw, the
  /// first exception (in task-submission order as observed) is rethrown here
  /// and the rest are dropped.
  void wait();

  /// Resolves a jobs request: n > 0 is taken literally, n <= 0 means "one
  /// per hardware thread" (at least 1).
  static int resolve_jobs(int n);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< signals workers: work or shutdown
  std::condition_variable done_cv_;   ///< signals wait(): all tasks finished
  std::size_t in_flight_ = 0;         ///< queued + currently running tasks
  std::exception_ptr first_error_;
  bool stop_ = false;
};

/// Runs fn(0) .. fn(n-1) across `jobs` threads and blocks until all finish.
/// jobs <= 1 (after resolve) runs inline on the caller's thread with no pool.
/// The first exception thrown by any invocation propagates to the caller.
/// Because each index is independent and the caller indexes its own output
/// slots, the observable result is identical for every thread count.
void parallel_for(int n, int jobs, const std::function<void(int)>& fn);

/// Maps fn over [0, n) into an order-preserving vector, in parallel.
template <typename R>
std::vector<R> parallel_map(int n, int jobs, const std::function<R(int)>& fn) {
  std::vector<R> out(static_cast<std::size_t>(n < 0 ? 0 : n));
  parallel_for(n, jobs,
               [&](int i) { out[static_cast<std::size_t>(i)] = fn(i); });
  return out;
}

}  // namespace drlnoc::util
