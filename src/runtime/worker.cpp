#include "runtime/worker.hpp"

namespace swallow::runtime {

PortGate::Ticket PortGate::acquire(GateOrder order) {
  Ticket ticket = 0;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = waiters_.insert(order);
    for (;;) {
      if (!busy_ && waiters_.begin() == it) break;
      if (holder_timeout_ <= 0) {
        cv_.wait(lock);
        continue;
      }
      if (busy_) {
        const auto deadline =
            busy_since_ + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(holder_timeout_));
        if (Clock::now() >= deadline) {
          // The holder has sat on the port past the timeout: presume it
          // dead and evict. Its ticket goes stale, so a late release()
          // from a merely-slow holder is ignored.
          busy_ = false;
          holder_ = 0;
          ++evictions_;
          cv_.notify_all();
          continue;
        }
        cv_.wait_until(lock, deadline);
      } else {
        // Port free but a better-ranked waiter exists; wake on handoff.
        cv_.wait(lock);
      }
    }
    waiters_.erase(it);
    busy_ = true;
    busy_since_ = Clock::now();
    ticket = ++next_ticket_;
    holder_ = ticket;
  }
  return ticket;
}

void PortGate::release(Ticket ticket) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!busy_ || holder_ != ticket) return;  // superseded by an eviction
    busy_ = false;
    holder_ = 0;
  }
  cv_.notify_all();
}

void PortGate::set_holder_timeout(common::Seconds timeout) {
  std::lock_guard<std::mutex> lock(mutex_);
  holder_timeout_ = timeout;
}

std::size_t PortGate::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

Worker::Worker(WorkerId id, common::Bps nic_rate)
    : id_(id), egress_(nic_rate), ingress_(nic_rate) {}

void Worker::log_flow(CoflowRef ref, const FlowInfo& info) {
  std::lock_guard<std::mutex> lock(log_mutex_);
  log_[ref].push_back(info);
}

void Worker::forget(CoflowRef ref) {
  std::lock_guard<std::mutex> lock(log_mutex_);
  log_.erase(ref);
}

std::map<CoflowRef, std::vector<FlowInfo>> Worker::registration_log() const {
  std::lock_guard<std::mutex> lock(log_mutex_);
  return log_;
}

void Worker::account_transfer(std::size_t raw_bytes, std::size_t wire_bytes) {
  raw_bytes_.fetch_add(raw_bytes);
  wire_bytes_.fetch_add(wire_bytes);
}

}  // namespace swallow::runtime
