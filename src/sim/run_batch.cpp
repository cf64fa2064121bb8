#include "sim/run_batch.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "common/rng.hpp"

namespace swallow::sim {

std::uint64_t batch_seed(std::uint64_t base, std::uint64_t index) {
  // Output index + 1 of the splitmix64 stream that starts at `base`:
  // decorrelates adjacent indices and the base seed itself.
  std::uint64_t x = base + 0x9e3779b97f4a7c15ull * index;
  return common::splitmix64(x);
}

namespace detail {

void run_batch_impl(std::size_t count,
                    const std::function<void(std::size_t)>& body,
                    const BatchOptions& options) {
  if (count == 0) return;
  std::size_t threads = options.threads;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  if (threads > count) threads = count;
  if (threads <= 1) {
    // Inline execution: identical semantics, no pool overhead.
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }

  // Every job is known up front and none is ever re-queued, so one shared
  // index hands each job out exactly once.
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr first_error;

  auto worker = [&] {
    for (;;) {
      const std::size_t job = next.fetch_add(1);
      if (job >= count) return;
      try {
        body(job);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t w = 0; w < threads; ++w) pool.emplace_back(worker);
  for (std::thread& th : pool) th.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace detail
}  // namespace swallow::sim
