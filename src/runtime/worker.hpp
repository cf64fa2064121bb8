// A Swallow worker: one "machine" of the in-process cluster. Passive owner
// of the machine's block store, NIC rate limiters, the priority gate that
// serializes its egress port in coflow order, and the pending flow
// registrations the driver collects via hook().
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <utility>
#include <vector>

#include "runtime/block_store.hpp"
#include "runtime/rate_limiter.hpp"

namespace swallow::runtime {

using WorkerId = std::uint32_t;
using RtFlowId = std::uint64_t;

/// Flow metadata a sender registers before shuffling (Table IV: the
/// flowInfo array returned by hook()).
struct FlowInfo {
  RtFlowId flow_id = 0;
  WorkerId src = 0;
  WorkerId dst = 0;
  std::size_t bytes = 0;
  bool compressible = true;
};

/// Where a waiter queues at a port gate: its coflow's FVDF key
/// (Master::key_of), ties broken by coflow ref.
using GateOrder = std::pair<double, CoflowRef>;

/// Serializes transfers through a port in scheduling-priority order: the
/// waiter with the smallest GateOrder proceeds when the port frees up.
///
/// Failure model: a holder that dies without releasing (a crashed worker)
/// would wedge the port and every waiter behind it forever. With a holder
/// timeout configured, waiters evict a holder that has sat on the port too
/// long; tickets make the dead holder's eventual release() a no-op, so an
/// evicted-but-alive straggler cannot free the port out from under the new
/// holder. Eviction trades strict mutual exclusion for liveness during
/// recovery — the evicted transfer may still be mid-flight, which in this
/// in-process model only relaxes the port ordering, never corrupts data.
class PortGate {
 public:
  /// Monotonic holder identity; pass it to release(). 0 is never issued.
  using Ticket = std::uint64_t;

  /// Blocks until first in GateOrder, then takes the port.
  Ticket acquire(GateOrder order);
  /// Releases the port iff `ticket` is still the live holder (no-op after
  /// an eviction superseded it).
  void release(Ticket ticket);

  /// Holder timeout in seconds; 0 (default) never evicts, preserving the
  /// original block-forever behaviour bit-for-bit.
  void set_holder_timeout(common::Seconds timeout);
  std::size_t evictions() const;

 private:
  using Clock = std::chrono::steady_clock;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool busy_ = false;
  Ticket next_ticket_ = 0;
  Ticket holder_ = 0;
  Clock::time_point busy_since_{};
  double holder_timeout_ = 0;
  std::size_t evictions_ = 0;
  std::multiset<GateOrder> waiters_;
};

class Worker {
 public:
  Worker(WorkerId id, common::Bps nic_rate);

  WorkerId id() const { return id_; }
  BlockStore& store() { return store_; }
  RateLimiter& egress() { return egress_; }
  RateLimiter& ingress() { return ingress_; }
  PortGate& egress_gate() { return egress_gate_; }

  /// Sender-side registration; drained by SwallowContext::hook().
  void register_flow(const FlowInfo& info);
  std::vector<FlowInfo> drain_registrations();

  /// Crash recovery: every registration is also appended to a durable
  /// per-worker log (drain_registrations is destructive, the log is not),
  /// so a replacement master can ask the workers to re-announce their
  /// flows. Pruned via forget_flows when the driver removes the coflow.
  std::vector<FlowInfo> registration_log() const;
  void forget_flows(const std::vector<RtFlowId>& flows);

  /// Worker-kill support: a dead worker keeps its objects alive (threads
  /// may still hold references) but the cluster routes around it.
  void mark_dead() { dead_.store(true, std::memory_order_relaxed); }
  bool dead() const { return dead_.load(std::memory_order_relaxed); }

  /// Traffic counters (bytes): what went on the wire vs the raw payload.
  void account_transfer(std::size_t raw_bytes, std::size_t wire_bytes);
  std::size_t wire_bytes_sent() const { return wire_bytes_.load(); }
  std::size_t raw_bytes_sent() const { return raw_bytes_.load(); }

 private:
  WorkerId id_;
  BlockStore store_;
  RateLimiter egress_;
  RateLimiter ingress_;
  PortGate egress_gate_;

  mutable std::mutex reg_mutex_;
  std::vector<FlowInfo> registrations_;
  std::vector<FlowInfo> registration_log_;

  std::atomic<std::size_t> wire_bytes_{0};
  std::atomic<std::size_t> raw_bytes_{0};
  std::atomic<bool> dead_{false};
};

}  // namespace swallow::runtime
