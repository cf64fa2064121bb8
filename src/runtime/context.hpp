// SwallowContext: the Table IV programming API, backed by an in-process
// cluster. Cluster frameworks drive shuffles exactly as the paper's Scala
// snippet does:
//
//   ctx.register_flow(info);                       // Executor
//   auto flow_info  = ctx.hook(executor);          // Driver
//   auto coflow     = ctx.aggregate(flow_info);    // Driver
//   auto ref        = ctx.add(coflow);             // Driver
//   auto result     = ctx.scheduling({ref});       // Driver
//   ctx.alloc(result);                             // ClusterManager
//   ctx.push(ref, {{block_id, dst}}, data, src);   // Sender
//   auto data       = ctx.pull(ref, block_id, dst);// Receiver
//   ctx.remove(ref);                               // Driver
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <vector>

#include "codec/chunk.hpp"
#include "codec/codec.hpp"
#include "codec/throughput.hpp"
#include "runtime/fault.hpp"
#include "runtime/master.hpp"
#include "runtime/worker.hpp"

namespace swallow::runtime {

/// Idle CPU share (h) a cluster's master assumes at every worker when it
/// prices compression (Eq. 3: R_eff = R * h).
inline constexpr double kCpuHeadroom = 0.9;

struct ClusterConfig {
  std::size_t num_workers = 4;
  common::Bps nic_rate = 64.0 * 1024 * 1024;  ///< 64 MiB/s keeps tests brisk
  codec::CodecKind codec = codec::CodecKind::kLzBalanced;
  /// The swallow.smartCompress option of the paper's library.
  bool smart_compress = true;
  /// (R, xi) model for the compression gate; defaults to Table II's LZ4.
  codec::CodecModel codec_model = codec::default_codec_model();
  /// Chunk size for the pipelined codec data plane (DESIGN.md §14): blocks
  /// travel as SWF2 chunk frames, chunk N transmitting while chunk N+1
  /// encodes. Must be positive.
  std::size_t chunk_bytes = codec::kDefaultChunkBytes;
  /// Codec worker threads shared by all transfers (0 = auto: min(4, hw)).
  unsigned codec_threads = 0;
  /// Trace sink shared by the master, the fault injector, the chunk pool
  /// and the context data paths (scheduling decisions, faults, per-chunk
  /// codec spans, push/pull spans). Null disables tracing.
  obs::Tracer* sink = nullptr;
  /// Fault model (disabled by default: the data path is then byte-identical
  /// to a fault-free build) and the recovery knobs opposite it.
  FaultConfig fault;
  RetryPolicy retry;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);

  std::size_t size() const { return workers_.size(); }
  Worker& worker(WorkerId id);
  Master& master() { return master_; }
  const ClusterConfig& config() const { return config_; }
  const codec::Codec& codec() const { return *codec_; }
  obs::Tracer* sink() const { return config_.sink; }

  /// Shared codec worker pool. All transfers' encode/decode jobs
  /// multiplex onto it.
  codec::ChunkPool* chunk_pool() { return chunk_pool_.get(); }
  /// Measured per-chunk codec throughput; calibrate() turns it into a
  /// CodecModel for the sim/gate side.
  codec::ThroughputLedger& ledger() { return ledger_; }
  const codec::ThroughputLedger& ledger() const { return ledger_; }

  /// Cluster-wide traffic totals (sum over workers).
  std::size_t total_wire_bytes() const;
  std::size_t total_raw_bytes() const;

  // ---- Failure model & recovery (DESIGN.md §8) ----
  FaultInjector& injector() { return injector_; }
  FaultCounters& fault_counters() { return fault_counters_; }
  RetentionStore& retention() { return retention_; }

  /// Marks a worker dead and wipes its block store (its in-flight and
  /// resident blocks are lost; retransmits land on the replacement).
  /// The last live worker cannot be killed.
  void kill_worker(WorkerId id);
  /// `id` if alive, else the first surviving worker after it (wrap-around).
  WorkerId effective_worker(WorkerId id) const;

  /// Cluster-wide fault/recovery totals: injections + retries/retransmits
  /// (context paths) + gate evictions (workers) + degraded flows (master).
  FaultStats fault_stats() const;

  // ---- Master fail-over (DESIGN.md section 13) ----

  /// Rebuilds the master's bookkeeping after a master crash: loads the
  /// newest usable snapshot in `dir` (fingerprint-checked; an empty or
  /// snapshot-free dir cold-starts instead), drops every snapshot coflow
  /// that no worker logs any more (removed after the snapshot), then
  /// re-registers every coflow the snapshot lacks from the live workers'
  /// logs, under its ORIGINAL ref — receivers blocked in pull() hold those
  /// refs, and the retention/store keys embed them. A re-registered coflow
  /// lists its flows by sender, in the order add() logged them. Returns
  /// true when a snapshot was used.
  bool restore_master(const std::string& dir);

 private:
  ClusterConfig config_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::unique_ptr<codec::Codec> codec_;
  std::unique_ptr<codec::ChunkPool> chunk_pool_;
  codec::ThroughputLedger ledger_;
  Master master_;
  FaultCounters fault_counters_;
  FaultInjector injector_;
  RetentionStore retention_;
};

/// One destination of a push: the block id its receiver pulls and the
/// worker it lands on.
struct PushTarget {
  BlockId block = 0;
  WorkerId dst = 0;
};

/// One per driver: it owns the flows its executors register until add()
/// makes them a coflow, so concurrent drivers on one cluster never see
/// each other's flows. Any thread may call it.
class SwallowContext {
 public:
  explicit SwallowContext(Cluster& cluster)
      : cluster_(&cluster), pending_(cluster.size()) {}

  /// Executor side: registers a flow its sender `info.src` will push.
  /// Throws std::out_of_range when no worker has that id.
  void register_flow(const FlowInfo& info);
  /// Drains the flows registered with this context at one executor
  /// (worker), in registration order.
  std::vector<FlowInfo> hook(WorkerId executor);
  /// Merges flow infos into one coflow.
  CoflowInfo aggregate(std::vector<FlowInfo> flows);
  /// Registers the coflow with the master and logs each flow at its
  /// sender under the new ref (the fail-over's source).
  CoflowRef add(CoflowInfo info);
  /// Drops the coflow from the master, every worker's log and store, and
  /// the retention store.
  void remove(CoflowRef ref);
  SchedResult scheduling(const std::vector<CoflowRef>& refs);
  void alloc(const SchedResult& result);

  /// Sender side: sends one payload to each target in order. Per target it
  /// optionally compresses, waits for the coflow's turn on the source
  /// egress port, moves the bytes through both NIC limiters, and lands the
  /// block in the destination's store. Blocking. The payload is encoded
  /// once per codec decision: a later target whose block takes the same
  /// decision as an earlier one sends the frame already encoded, piece for
  /// piece (the frames are byte-identical, DESIGN.md §14). Injected codec
  /// failures are retried with backoff (degrading the flow to uncompressed
  /// past the RetryPolicy threshold); injected drops/stalls are invisible
  /// to the sender — the pull side recovers them. Throws ShuffleError
  /// (kCodecFailure) when a target's retry budget is exhausted; the
  /// targets after it are not sent.
  void push(CoflowRef ref, const std::vector<PushTarget>& targets,
            std::span<const std::uint8_t> data, WorkerId src);

  /// Receiver side: waits for the block (bounded by RetryPolicy's
  /// per-attempt pull_timeout), decompresses if needed, and on timeout or
  /// a corrupt frame requests a retransmit from the sender-side retention
  /// store with exponential backoff. Throws ShuffleError (kPullTimeout /
  /// kCorruption) when the retry budget is exhausted — never hangs.
  /// When `wire_reclaim` is given, the wire buffer (compressed when the
  /// master enabled compression) is released through it after decoding —
  /// the receiver-side reclamation that Table VIII's GC analog measures.
  codec::Buffer pull(CoflowRef ref, BlockId block, WorkerId dst,
                     BufferPool* wire_reclaim = nullptr);

  /// Master fail-over replay: re-pushes every retained block that is not
  /// resident in its (surviving) destination's store — in-flight transfers
  /// the crash may have lost land again, waking receivers blocked in
  /// pull() without waiting for their per-attempt timeouts. Blocks already
  /// consumed by a receiver are re-landed too (indistinguishable from lost
  /// ones sender-side) and swept out by remove() with the coflow. Returns
  /// the number of blocks re-pushed.
  std::size_t replay_in_flight();

 private:
  /// A payload's SWF2 frame under one codec decision and the sizes of the
  /// pieces the encoder yielded it in. Empty `pieces`: not encoded yet.
  struct Frame {
    codec::Buffer bytes;
    std::vector<std::size_t> pieces;
  };
  /// The frames one push() call has encoded, indexed by the decision's
  /// `compress`. It lives for that call only.
  using FrameMemo = std::array<Frame, 2>;

  /// One delivery attempt; returns true when the block reached the
  /// receiver's store (false: injected drop or sender death mid-transfer).
  /// Throws codec::CodecError on an injected codec failure. With a memo,
  /// a frame it holds for the block's decision is sent instead of encoding
  /// `data`, and a fresh encode is stored in it.
  bool transfer_once(CoflowRef ref, BlockId block,
                     std::span<const std::uint8_t> data, WorkerId src,
                     WorkerId dst, int attempt, FrameMemo* memo = nullptr);
  /// Re-sends a retained copy as `attempt`: counts the retransmit, and
  /// charges an injected codec failure to the flow (the receiver's pull
  /// retry loop re-requests). False when the codec failed.
  bool resend(BlockKey key, const RetentionStore::Retained& copy,
              int attempt);
  /// The step after failed attempt `attempt`: throws ShuffleError
  /// (`failure`) once the retry budget is spent; otherwise counts the
  /// retry, re-sends the retained copy when `retransmit` is set, and sleeps
  /// the jittered backoff.
  void retry_step(ShuffleFailure failure, CoflowRef ref, BlockId block,
                  int attempt, common::Rng& jitter, bool retransmit);

  Cluster* cluster_;
  std::mutex pending_mutex_;
  std::vector<std::vector<FlowInfo>> pending_;  ///< by sender, until hooked
};

}  // namespace swallow::runtime
