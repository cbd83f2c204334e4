#include "util/thread_pool.h"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace drlnoc::util {

int resolve_jobs(int n) {
  if (n > 0) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void parallel_for(int n, int jobs, const std::function<void(int)>& fn) {
  if (n <= 0) return;
  jobs = resolve_jobs(jobs);
  if (jobs > n) jobs = n;
  if (jobs <= 1) {
    for (int i = 0; i < n; ++i) fn(i);
    return;
  }

  // One shared index counter; every thread pulls the next undone index.
  // Assignment of indices to threads varies run to run, but results are
  // stored by index so the caller never observes the difference. Once any
  // index throws, the remaining indices are abandoned (tasks can be
  // minutes-long simulations; the caller should see the failure now, not
  // after the full sweep).
  std::atomic<int> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  const auto loop = [&] {
    for (int i = next.fetch_add(1); i < n && !failed.load();
         i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        failed.store(true);
      }
    }
  };
  {
    // jthreads join on destruction, also when starting a later one throws.
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(jobs - 1));
    for (int t = 1; t < jobs; ++t) threads.emplace_back(loop);
    loop();
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace drlnoc::util
