#include "runtime/rate_limiter.hpp"

#include <algorithm>
#include <stdexcept>
#include <thread>

namespace swallow::runtime {

RateLimiter::RateLimiter(common::Bps rate, double burst)
    : rate_(rate), burst_(burst), last_refill_(Clock::now()) {
  if (rate <= 0) throw std::invalid_argument("RateLimiter: non-positive rate");
  if (burst_ <= 0) burst_ = std::max(64.0 * 1024.0, rate_ * 0.010);
  tokens_ = burst_;
}

void RateLimiter::refill_locked(Clock::time_point now) {
  const double elapsed =
      std::chrono::duration<double>(now - last_refill_).count();
  tokens_ = std::min(burst_, tokens_ + elapsed * rate_);
  last_refill_ = now;
}

void RateLimiter::acquire(std::size_t bytes) {
  double need = static_cast<double>(bytes);
  while (need > 0) {
    double wait_seconds = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      refill_locked(Clock::now());
      const double take = std::min(tokens_, need);
      tokens_ -= take;
      need -= take;
      if (need > 0) {
        // Time until a bucket's worth (or the remainder) is available.
        wait_seconds = std::min(need, burst_) / rate_;
      }
    }
    if (need > 0)
      std::this_thread::sleep_for(std::chrono::duration<double>(wait_seconds));
  }
}

common::Bps RateLimiter::rate() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rate_;
}

}  // namespace swallow::runtime
