// Index-addressed fan-out of independent experiment tasks across hardware
// threads. No queue and no work stealing: parallel_for starts its threads,
// every thread (the caller's too) pulls the next undone index from one shared
// counter, and each task writes its own pre-sized slot, so parallel output is
// bit-identical to serial regardless of scheduling order or thread count
// (docs/ARCHITECTURE.md, "Determinism rules", rule 1).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

namespace drlnoc::util {

/// Resolves a jobs request: n > 0 is taken literally, n <= 0 means "one per
/// hardware thread" (at least 1).
int resolve_jobs(int n);

/// Runs fn(0) .. fn(n-1) on `jobs` threads (after resolve_jobs; the caller's
/// thread is one of them) and blocks until all finish. jobs <= 1 runs inline
/// on the caller's thread. The first exception thrown by any invocation
/// propagates to the caller. Because each index is independent and the
/// caller indexes its own output slots, the observable result is identical
/// for every thread count.
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
