// Token-bucket rate limiter emulating a NIC: acquire(bytes) blocks the
// calling transfer thread until the bytes fit the configured rate.
#pragma once

#include <chrono>
#include <mutex>

#include "common/units.hpp"

namespace swallow::runtime {

class RateLimiter {
 public:
  /// `rate` in bytes/second; `burst` is the bucket depth (default: 64 KiB
  /// or 10 ms worth of tokens, whichever is larger).
  explicit RateLimiter(common::Bps rate, double burst = 0);

  /// Blocks until `bytes` tokens are available, then consumes them.
  void acquire(std::size_t bytes);

  common::Bps rate() const;

 private:
  using Clock = std::chrono::steady_clock;
  void refill_locked(Clock::time_point now);

  mutable std::mutex mutex_;
  double rate_;
  double burst_;
  double tokens_;
  Clock::time_point last_refill_;
};

}  // namespace swallow::runtime
