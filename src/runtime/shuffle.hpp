// End-to-end shuffle engine: runs a map -> shuffle -> reduce job over the
// in-process cluster through the SwallowContext API, with real payloads,
// real compression and payload verification. Backs the deployment-style
// experiments (Fig. 7(a), Table VII, Table VIII).
#pragma once

#include <cstdint>
#include <string>

#include "codec/synth_data.hpp"
#include "runtime/context.hpp"

namespace swallow::runtime {

struct ShuffleJobConfig {
  codec::AppProfile app;                 ///< payload generator (Table I app)
  std::size_t mappers = 4;
  std::size_t reducers = 2;
  std::size_t bytes_per_partition = 64 * 1024;
  /// Result stage ("save output as Hadoop files", Fig. 7(a)): each reducer
  /// writes its output to this many replica workers over the network.
  /// 0 disables the stage.
  std::size_t result_replicas = 0;
  std::uint64_t seed = 1;
};

/// One job's account. `wire_bytes`, the codec chunk counters and the fault
/// counters are cluster-wide deltas over the job (totals at its end minus
/// totals at its start), so the reports of concurrent jobs on one cluster
/// overlap: each counts the other's traffic while both run.
struct ShuffleReport {
  std::string app;
  common::Seconds map_time = 0;      ///< payload generation (map stage)
  common::Seconds shuffle_time = 0;  ///< concurrent push+pull wall time
  common::Seconds reduce_time = 0;   ///< reduce aggregation CPU time
  common::Seconds result_time = 0;   ///< replica writes (0 if disabled)
  common::Seconds jct = 0;           ///< total job completion time

  std::size_t raw_bytes = 0;   ///< payload bytes the job shuffled
  std::size_t wire_bytes = 0;  ///< bytes that crossed the (rate-limited) wire

  BufferPool::Stats map_pool;     ///< sender-side (raw partition) reclamation
  BufferPool::Stats reduce_pool;  ///< receiver-side (wire buffer) reclamation:
                                  ///< shrinks with compression (Table VIII)

  bool verified = false;  ///< every block matched its pre-shuffle checksum

  /// Per-chunk codec activity: the chunk counts are deltas of the
  /// cluster's ThroughputLedger over the job; the speeds are the ledger's
  /// totals since the cluster started.
  double encode_mbps = 0;          ///< raw MB/s through the encoders
  double decode_mbps = 0;          ///< raw MB/s through the decoders
  std::size_t chunks_encoded = 0;  ///< SWF2 chunk records produced
  std::size_t chunks_decoded = 0;  ///< SWF2 chunk records verified+decoded

  /// Fault/recovery activity during this job (deltas of the cluster-wide
  /// FaultStats around the run; all zero with the injector disabled).
  std::size_t faults_injected = 0;
  std::size_t retries = 0;          ///< push/pull attempts beyond the first
  std::size_t retransmits = 0;      ///< re-pushes from the retention store
  std::size_t corrupt_frames = 0;   ///< frames rejected by checksum64
  std::size_t pull_timeouts = 0;    ///< bounded waits that expired
  std::size_t gate_evictions = 0;   ///< dead PortGate holders evicted
  std::size_t degraded_flows = 0;   ///< flows flipped to uncompressed

  double traffic_reduction() const {
    return raw_bytes == 0
               ? 0.0
               : 1.0 - static_cast<double>(wire_bytes) /
                           static_cast<double>(raw_bytes);
  }
};

/// Runs one job; mappers live on workers [0..mappers), reducers on workers
/// ((mapper_count + j) mod cluster size). Failures surface as typed
/// ShuffleError (kVerification when a payload mismatched its pre-shuffle
/// checksum; kPullTimeout / kCorruption / kCodecFailure propagated from the
/// push/pull recovery paths) — worker-thread exceptions are rethrown on the
/// calling thread, never std::terminate.
ShuffleReport run_shuffle_job(Cluster& cluster, const ShuffleJobConfig& config);

}  // namespace swallow::runtime
