#include "celect/harness/sweep.h"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "celect/util/thread_annotations.h"

namespace celect::harness {

namespace {

// First exception any worker captured; later captures are dropped (one
// failure already invalidates the sweep, and the first is the closest
// to the root cause under the work-stealing order).
class ErrorSlot {
 public:
  void Capture() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!error_) error_ = std::current_exception();
  }

  // Call after every worker joined.
  void Rethrow() {
    std::lock_guard<std::mutex> lock(mu_);
    if (error_) std::rethrow_exception(error_);
  }

 private:
  std::mutex mu_;
  std::exception_ptr error_ CELECT_GUARDED_BY(mu_);
};

// The failure flag of the loop the current worker thread serves.
thread_local const std::atomic<bool>* tls_failed = nullptr;

}  // namespace

std::uint32_t ResolveThreads(std::uint32_t requested, std::size_t count) {
  std::uint32_t threads = requested;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  if (count < threads) threads = static_cast<std::uint32_t>(count);
  return threads;
}

void ParallelFor(std::size_t count, std::uint32_t threads,
                 const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  std::uint32_t workers = ResolveThreads(threads, count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  // Work stealing via a shared index: grids are heterogeneous (large-N
  // cells dwarf small-N ones), so static partitioning would leave
  // workers idle behind the slowest stripe.
  std::atomic<std::size_t> next{0};
  // A throwing body would std::terminate on the worker thread; capture
  // instead, drain the pool, and rethrow on the caller.
  std::atomic<bool> failed{false};
  ErrorSlot error;
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::uint32_t w = 0; w < workers; ++w) {
    pool.emplace_back([&next, count, &body, &failed, &error] {
      tls_failed = &failed;
      for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
           i < count && !failed.load(std::memory_order_relaxed);
           i = next.fetch_add(1, std::memory_order_relaxed)) {
        try {
          body(i);
        } catch (...) {
          error.Capture();
          failed.store(true, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  error.Rethrow();
}

bool ParallelForFailed() {
  return tls_failed != nullptr && tls_failed->load(std::memory_order_relaxed);
}

std::vector<sim::RunResult> RunSweep(const std::vector<SweepPoint>& grid,
                                     const SweepOptions& options) {
  std::vector<sim::RunResult> results(grid.size());
  ParallelFor(grid.size(), options.threads, [&grid, &results](std::size_t i) {
    results[i] = RunElection(grid[i].factory, grid[i].options);
  });
  return results;
}

}  // namespace celect::harness
