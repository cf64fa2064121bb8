// Fault injection and recovery for the runtime cluster.
//
// The paper's deployment numbers come from a 100-VM Spark cluster where
// stragglers, lost blocks and corrupted transfers are routine; this layer
// gives the in-process runtime the same adversity — deterministically.
// A FaultInjector decides per (fault kind, block, attempt) from a seeded
// xoshiro stream whether to drop a block in flight, corrupt its wire frame
// (exercising the checksums of codec/chunk.hpp), stall the transfer,
// fail the codec call, or kill a worker at a configured point. Decisions
// are pure functions of (seed, kind, block, attempt), so runs are
// bit-reproducible regardless of thread interleaving.
//
// Opposite the injector sits the recovery machinery the rest of the
// runtime uses: bounded exponential backoff with jitter (RetryPolicy),
// sender-side block retention for retransmits (RetentionStore), the typed
// ShuffleError surfaced when recovery is exhausted, and the FaultCounters
// every injection, retry and retransmit reports through
// (Cluster::fault_stats, ShuffleReport).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>

#include "common/rng.hpp"
#include "runtime/worker.hpp"

namespace swallow::obs {
class Tracer;
}

namespace swallow::runtime {

/// Fault classes the injector can produce. Each maps to one obs event
/// name in the `fault` category ("fault.drop", "fault.corrupt", ...).
enum class FaultKind : std::uint8_t {
  kDrop = 0,       ///< block vanishes between sender NIC and receiver store
  kCorrupt = 1,    ///< wire frame bytes flipped in flight
  kStall = 2,      ///< straggler: transfer delayed by stall_duration
  kCodecFail = 3,  ///< compression call throws (CPU-side failure)
  kWorkerKill = 4, ///< a worker dies at the configured kill point
};

/// Per-cluster fault model (ClusterConfig::fault). Disabled by default:
/// with enabled=false the injector never consults the RNG and the runtime
/// data path is byte-identical to an injector-free build.
struct FaultConfig {
  bool enabled = false;
  std::uint64_t seed = 1;     ///< root of every injection decision
  double drop_rate = 0;       ///< per (block, attempt) drop probability
  double corrupt_rate = 0;    ///< per (block, attempt) corruption probability
  double stall_rate = 0;      ///< per (block, attempt) straggler probability
  double codec_fail_rate = 0; ///< per (block, attempt) codec-crash probability
  common::Seconds stall_duration = 0.05;

  /// Worker kill: when kill_after_deliveries blocks have landed cluster-wide,
  /// kill_worker dies. With kill_holding_gate the victim crashes while
  /// holding its egress PortGate (the deadlock class holder-timeout eviction
  /// exists for).
  bool kill_enabled = false;
  WorkerId kill_worker = 0;
  std::size_t kill_after_deliveries = 0;
  bool kill_holding_gate = false;

  /// Convenience: same rate for drop/corrupt/stall/codec faults.
  void set_uniform_rate(double rate) {
    drop_rate = corrupt_rate = stall_rate = codec_fail_rate = rate;
  }
};

/// Recovery knobs (ClusterConfig::retry). Active even when injection is
/// off, so a genuine bug times out with a typed error instead of hanging.
struct RetryPolicy {
  int max_attempts = 5;                    ///< per-block push/pull attempts
  common::Seconds base_backoff = 0.005;    ///< first retry delay
  double backoff_multiplier = 2.0;         ///< exponential growth
  common::Seconds max_backoff = 0.25;      ///< backoff ceiling
  double jitter = 0.5;                     ///< fraction of delay randomized
  common::Seconds pull_timeout = 30.0;     ///< per-attempt block wait
  common::Seconds gate_holder_timeout = 0; ///< PortGate eviction; 0 = never
  int degrade_after = 2;  ///< codec/corruption failures before a flow is
                          ///< flipped to uncompressed (graceful degradation)
};

/// Bounded exponential backoff with jitter: attempt 1 waits ~base, each
/// further attempt doubles (per multiplier) up to max_backoff, scaled by
/// a uniform factor in [1 - jitter, 1].
common::Seconds backoff_delay(const RetryPolicy& retry, int attempt,
                              common::Rng& rng);

/// Failure classes a shuffle surfaces when recovery is exhausted.
enum class ShuffleFailure : std::uint8_t {
  kVerification = 0,  ///< payload checksum mismatch after a verified pull
  kPullTimeout = 1,   ///< block never arrived within the retry budget
  kCorruption = 2,    ///< every retransmit of the block arrived corrupt
  kCodecFailure = 3,  ///< compression kept failing past the retry budget
};

const char* shuffle_failure_name(ShuffleFailure kind);

/// Typed shuffle error carrying the coflow/flow/block coordinates of the
/// failure (replaces the bare std::runtime_error the shuffle used to throw).
class ShuffleError : public std::runtime_error {
 public:
  ShuffleError(ShuffleFailure kind, CoflowRef coflow, RtFlowId flow,
               BlockId block);

  ShuffleFailure kind() const { return kind_; }
  CoflowRef coflow() const { return coflow_; }
  RtFlowId flow() const { return flow_; }
  BlockId block() const { return block_; }

 private:
  ShuffleFailure kind_;
  CoflowRef coflow_;
  RtFlowId flow_;
  BlockId block_;
};

/// Snapshot of the cluster's fault/recovery activity (Cluster::fault_stats).
struct FaultStats {
  std::size_t injected_drops = 0;
  std::size_t injected_corruptions = 0;
  std::size_t injected_stalls = 0;
  std::size_t injected_codec_failures = 0;
  std::size_t worker_kills = 0;

  std::size_t retries = 0;         ///< backoff-and-retry rounds (push + pull)
  std::size_t retransmits = 0;     ///< blocks re-sent from retention
  std::size_t corrupt_frames = 0;  ///< pull-side frame decode failures
  std::size_t pull_timeouts = 0;   ///< per-attempt block waits that expired
  std::size_t gate_evictions = 0;  ///< dead PortGate holders evicted
  std::size_t degraded_flows = 0;  ///< flows flipped to uncompressed

  std::size_t total_injected() const {
    return injected_drops + injected_corruptions + injected_stalls +
           injected_codec_failures + worker_kills;
  }
};

/// Thread-safe fault and recovery counters.
class FaultCounters {
 public:
  void on_injected(FaultKind kind);
  void on_retry();
  void on_retransmit();
  void on_corrupt_frame();
  void on_pull_timeout();

  /// Partial snapshot; Cluster::fault_stats() adds gate evictions (summed
  /// from the workers) and degraded flows (tracked by the master).
  FaultStats snapshot() const;

 private:
  std::atomic<std::size_t> drops_{0};
  std::atomic<std::size_t> corruptions_{0};
  std::atomic<std::size_t> stalls_{0};
  std::atomic<std::size_t> codec_failures_{0};
  std::atomic<std::size_t> kills_{0};
  std::atomic<std::size_t> retries_{0};
  std::atomic<std::size_t> retransmits_{0};
  std::atomic<std::size_t> corrupt_frames_{0};
  std::atomic<std::size_t> pull_timeouts_{0};
};

/// Deterministic, seeded fault source. Every decision hashes
/// (seed, kind, block, attempt) into a fresh xoshiro stream, so the fault
/// pattern is a pure function of the seed — independent of scheduling,
/// thread count, or how often other blocks consult the injector.
class FaultInjector {
 public:
  FaultInjector(const FaultConfig& config, FaultCounters* counters,
                obs::Tracer* sink);

  bool enabled() const { return config_.enabled; }
  const FaultConfig& config() const { return config_; }

  /// Pure query: would `kind` fire for this (block, attempt)?
  bool fires(FaultKind kind, BlockId block, int attempt) const;

  /// fires() plus the side effects: counts the injection and emits the
  /// `fault` category obs event. Call sites act on a true return.
  bool inject(FaultKind kind, BlockId block, int attempt);

  /// Flips one deterministic byte of the wire frame (never the 4-byte
  /// magic, so the corruption reaches the checksum machinery instead of
  /// failing fast on the header).
  void corrupt(std::span<std::uint8_t> wire, BlockId block, int attempt) const;

  common::Seconds stall_duration() const { return config_.stall_duration; }

  /// Called once per delivered block; returns true exactly once, when the
  /// configured kill point is crossed.
  bool count_delivery_and_check_kill();

 private:
  double rate_of(FaultKind kind) const;

  FaultConfig config_;
  FaultCounters* counters_;
  obs::Tracer* sink_;
  std::atomic<std::size_t> deliveries_{0};
  std::atomic<bool> kill_fired_{false};
};

/// Sender-side retention: raw payload copies kept while a coflow is live so
/// a lost or corrupted block can be re-pushed (to the original destination
/// or, after a worker death, its surviving replacement). Populated only
/// when injection is enabled; dropped with the coflow.
class RetentionStore {
 public:
  struct Retained {
    WorkerId src = 0;
    WorkerId dst = 0;
    codec::Buffer raw;
  };

  void retain(BlockKey key, WorkerId src, WorkerId dst,
              std::span<const std::uint8_t> raw);
  /// Copy-out lookup (the retransmit path re-encodes from the copy).
  std::optional<Retained> lookup(BlockKey key) const;
  /// Keys of every retained block, in deterministic (sorted) order — the
  /// master fail-over replay walks these to re-push in-flight blocks.
  std::vector<BlockKey> keys() const;
  std::size_t drop_coflow(CoflowRef coflow);
  std::size_t block_count() const;
  std::size_t resident_bytes() const;

 private:
  mutable std::mutex mutex_;
  std::map<BlockKey, Retained> blocks_;
};

}  // namespace swallow::runtime
