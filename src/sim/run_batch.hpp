// Parallel sweep runner: runs independent (trace, fabric, config)
// simulations across a pool of threads.
//
// Parameter sweeps (bench_ext_degradation's episode rates, Fig. 6 style
// bandwidth ladders, seed batteries) are embarrassingly parallel: each run
// owns its trace and Metrics and shares nothing mutable. run_batch gives
// them a deterministic harness — results land in index order regardless of
// thread count or OS scheduling, and per-run seeds derive from (base seed,
// index) only — so a sweep's output is byte-identical whether it ran on 1
// thread or 16.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace swallow::sim {

struct BatchOptions {
  /// Worker count; 0 (the default) uses std::thread::hardware_concurrency.
  std::size_t threads = 0;
};

/// Deterministic per-run seed: splitmix64 over (base, index). Independent
/// of thread count and execution order, so seeded sweeps stay reproducible
/// when parallelized.
std::uint64_t batch_seed(std::uint64_t base, std::uint64_t index);

namespace detail {
void run_batch_impl(std::size_t count,
                    const std::function<void(std::size_t)>& body,
                    const BatchOptions& options);
}  // namespace detail

/// Runs fn(0) .. fn(count - 1) on a pool of threads and returns the results
/// in index order. Workers claim the next index from one shared atomic
/// counter. Every result is written into its preallocated slot, so the
/// returned vector is identical to serial execution; the first exception
/// any job throws is rethrown on the caller after all workers finish.
/// threads <= 1 runs inline (no pool).
template <typename Fn>
auto run_batch(std::size_t count, Fn&& fn, const BatchOptions& options = {})
    -> std::vector<decltype(fn(std::size_t{0}))> {
  using Result = decltype(fn(std::size_t{0}));
  std::vector<Result> results(count);
  detail::run_batch_impl(
      count, [&](std::size_t i) { results[i] = fn(i); }, options);
  return results;
}

}  // namespace swallow::sim
