// The Swallow master: aggregates coflow information from the workers and
// turns the FVDF heuristic into runtime decisions — a coflow service order
// (ranks for the port gates) and a per-flow compression switch (Eq. 3
// against the cluster's NIC speed and measured codec parameters).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "codec/codec_model.hpp"
#include "recovery/state_io.hpp"
#include "runtime/worker.hpp"

namespace swallow::runtime {

/// Aggregated coflow information (Table IV: output of aggregate()).
struct CoflowInfo {
  std::vector<FlowInfo> flows;
  std::size_t total_bytes() const;
};

struct FlowDecision {
  bool compress = false;
  common::Bps rate = 0;  ///< advisory per-flow rate (NIC-capped)
  /// Graceful degradation: true once repeated codec/corruption failures
  /// made the master flip this flow to uncompressed (compress stays false
  /// for the rest of the flow's life, including re-scheduling).
  bool degraded = false;
};

/// Output of scheduling() (Table IV's schResult): the coflow service order
/// and the per-flow decisions.
struct SchedResult {
  std::vector<CoflowRef> order;  ///< highest priority first
  std::map<RtFlowId, FlowDecision> decisions;
};

class Master {
 public:
  /// `nic_rate` is the per-worker NIC speed (the B of Eq. 3); `codec` the
  /// model whose (R, xi) gate compression; `cpu_headroom` the assumed idle
  /// CPU share; `compression` mirrors swallow.smartCompress. `sink`
  /// (optional) receives per-decision trace events and profiling data.
  /// `degrade_after` is the failure count at which a flow degrades to
  /// uncompressed (RetryPolicy::degrade_after); <= 0 disables degradation.
  Master(common::Bps nic_rate, codec::CodecModel codec, double cpu_headroom,
         bool compression, obs::Sink* sink = nullptr, int degrade_after = 2);

  CoflowRef add(CoflowInfo info);
  void remove(CoflowRef ref);

  /// FVDF: coflows ordered by expected completion (volume after optional
  /// compression over the NIC bottleneck), shortest first, adjusted by the
  /// priority classes which are upgraded on every call (Pseudocode 3).
  SchedResult scheduling(const std::vector<CoflowRef>& refs);

  /// Applies a scheduling result: ranks become the port-gate priorities.
  void alloc(const SchedResult& result);

  /// Gate rank of a coflow (position in the last applied order; coflows
  /// never scheduled sort after scheduled ones, by ref).
  std::uint64_t rank_of(CoflowRef ref) const;

  /// Compression decision for a flow (false if never scheduled).
  FlowDecision decision_of(RtFlowId flow) const;

  /// Recovery ladder: records one codec/corruption failure against a flow.
  /// On reaching the configured threshold the decision flips to
  /// uncompressed (degraded) — retransmits then take the cheap, robust
  /// path — and the change is counted (runtime.degraded_flows) and traced
  /// (`fault` category flow_degraded event). Returns the new count.
  int record_flow_failure(RtFlowId flow);

  std::size_t active_coflows() const;
  std::size_t degraded_flows() const;

  // ---- Crash-fault tolerance (DESIGN.md section 13) ----

  /// Serializes the master's full bookkeeping — registered coflows with
  /// their priority classes, the applied rank order, per-flow decisions,
  /// ownership and failure counts — in deterministic (key-sorted) order.
  void save_state(recovery::StateWriter& w) const;
  /// Rebuilds the bookkeeping from all of `r`'s save_state bytes; throws
  /// RecoveryError on malformed input. Replaces any existing state.
  void restore_state(recovery::StateReader& r);

  /// Publishes a checksummed `snap-<seq>.swsnap` of save_state() in `dir`
  /// (atomic tmp+rename, newest two kept; see recovery/snapshot.hpp).
  void checkpoint(const std::string& dir, std::uint64_t seq) const;
  /// Loads the newest usable snapshot in `dir` (fingerprint-checked
  /// against this master's configuration) into this master. Returns false
  /// — leaving the master untouched — when no usable snapshot exists.
  bool restore_from(const std::string& dir);

  /// Identity of the configuration the snapshots are only valid under
  /// (NIC rate, codec model, headroom, compression and degradation knobs).
  std::uint64_t config_fingerprint() const;

  /// Fail-over re-registration: re-inserts a coflow under its ORIGINAL ref
  /// (receivers blocked in pull() hold that ref) when a replacement master
  /// cold-starts from the workers' registration logs. No-op if the ref is
  /// already present (the snapshot got there first). Priority restarts at
  /// the base class — the upgrade ladder re-ages it.
  void restore_coflow(CoflowRef ref, CoflowInfo info);

  bool has_coflow(CoflowRef ref) const;
  /// Flow ids of a registered coflow (empty if unknown); the driver uses
  /// this on remove() to prune the workers' registration logs.
  std::vector<RtFlowId> flows_of(CoflowRef ref) const;

  /// Bookkeeping sizes, exposed so tests can assert remove() leaves no
  /// stale ranks/decisions behind across job lifecycles.
  std::size_t decision_count() const;
  std::size_t rank_count() const;

 private:
  struct Entry {
    std::vector<FlowInfo> flows;
    double priority = 1.0;
  };

  /// The snapshot layout, listed once for both directions.
  template <class Self, class IO>
  static void fields(Self& m, IO& io);

  bool degraded_locked(RtFlowId flow) const;

  mutable std::mutex mutex_;
  common::Bps nic_rate_;
  codec::CodecModel codec_;
  double cpu_headroom_;
  bool compression_;
  obs::Sink* sink_;
  int degrade_after_;
  std::size_t degraded_count_ = 0;
  CoflowRef next_ref_ = 1;
  std::map<CoflowRef, Entry> coflows_;
  std::map<CoflowRef, std::uint64_t> ranks_;
  std::map<RtFlowId, FlowDecision> decisions_;
  /// flow -> owning coflow; guards alloc() against resurrecting decisions
  /// of a coflow removed between scheduling() and alloc().
  std::map<RtFlowId, CoflowRef> flow_owner_;
  std::map<RtFlowId, int> flow_failures_;
};

}  // namespace swallow::runtime
