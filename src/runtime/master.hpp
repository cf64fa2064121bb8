// The Swallow master: aggregates coflow information from the workers and
// runs the simulator's FVDF over it as runtime decisions — a coflow service
// order (FVDF keys for the port gates) and a per-flow compression switch. Every
// flow is priced by core::evaluate_flow (Pseudocode 1, Eqs. 1-3 and 7) on a
// fabric of the cluster's NICs, and each coflow by Eq. 8's Γ_C.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "codec/codec_model.hpp"
#include "core/fvdf.hpp"
#include "cpu/cpu_model.hpp"
#include "recovery/state_io.hpp"
#include "runtime/worker.hpp"

namespace swallow::runtime {

/// Aggregated coflow information (Table IV: output of aggregate()).
struct CoflowInfo {
  std::vector<FlowInfo> flows;
};

struct FlowDecision {
  bool compress = false;
  /// Graceful degradation: true once repeated codec/corruption failures
  /// made the master flip this flow to uncompressed (compress stays false
  /// for the rest of the flow's life, including re-scheduling).
  bool degraded = false;
};

/// Output of scheduling() (Table IV's schResult): the coflow service order
/// with each coflow's FVDF key, and the per-flow decisions.
struct SchedResult {
  std::vector<CoflowRef> order;  ///< highest priority first
  std::vector<double> keys;      ///< keys[i]: order[i]'s Γ_C / max(P, 1)
  std::map<RtFlowId, FlowDecision> decisions;
};

class Master {
 public:
  /// FVDF prices flows on `workers` ports of `nic_rate` each (the B of
  /// Eqs. 3 and 7), a CPU of constant `cpu_headroom` (h) and `codec`'s
  /// (R, ξ); `compression` mirrors swallow.smartCompress (off: no codec, so
  /// β = 0 everywhere). `sink` (optional) receives per-decision trace
  /// events and profiling data. `degrade_after` is the failure count at
  /// which a flow degrades to uncompressed (RetryPolicy::degrade_after);
  /// <= 0 disables degradation.
  Master(std::size_t workers, common::Bps nic_rate, codec::CodecModel codec,
         double cpu_headroom, bool compression, obs::Tracer* sink = nullptr,
         int degrade_after = 2);

  /// Registers a coflow. Throws std::invalid_argument when one of its flow
  /// ids is already registered (in it or in another coflow), and
  /// std::out_of_range when a flow's src or dst is not one of the
  /// `workers` ports; either way nothing is registered.
  CoflowRef add(CoflowInfo info);
  /// Drops a coflow with its key, decisions and failure counts (no-op if
  /// unknown).
  void remove(CoflowRef ref);

  /// FVDF over `refs`: each flow's β and Γ_F from core::evaluate_flow (a
  /// degraded flow priced as incompressible), Γ_C as the max over its flows
  /// (Eq. 8), and the coflows ordered by Γ_C / max(P, 1), ties by ref —
  /// FvdfScheduler's plain-band key. Every coflow passed in ages one
  /// priority class first (Pseudocode 3's Upgrade; the runtime has no
  /// notion of a coflow served in a round). Throws std::out_of_range on an
  /// unknown ref before any coflow ages.
  SchedResult scheduling(const std::vector<CoflowRef>& refs);

  /// Applies a scheduling result: each coflow it names takes its key, and
  /// each flow its β. Coflows it does not name keep theirs.
  void alloc(const SchedResult& result);

  /// A coflow's port-gate key: its FVDF key from the last applied result
  /// that named it; +∞ for a coflow no applied result named yet (or an
  /// unknown ref). Gates serve by (key, ref), smallest first.
  double key_of(CoflowRef ref) const;

  /// Compression decision for a flow: the last applied β, off once the
  /// flow degraded (all false if never scheduled).
  FlowDecision decision_of(RtFlowId flow) const;

  /// Recovery ladder: records one codec/corruption failure against a flow.
  /// On reaching the configured threshold the decision flips to
  /// uncompressed (degraded) — retransmits then take the cheap, robust
  /// path — and the change is counted (runtime.degraded_flows) and traced
  /// (`fault` category flow_degraded event). Returns the new count; a flow
  /// no coflow owns stores nothing and returns 0.
  int record_flow_failure(RtFlowId flow);

  std::size_t degraded_flows() const;

  // ---- Crash-fault tolerance (DESIGN.md section 13) ----

  /// Serializes the master's full bookkeeping — registered coflows with
  /// their priority classes and keys, and each flow's last β and failure
  /// count — in deterministic (ref-sorted) order.
  void save_state(recovery::StateWriter& w) const;
  /// Rebuilds the bookkeeping from all of `r`'s save_state bytes; throws
  /// RecoveryError on malformed input, a NaN key or a flow id listed under
  /// two coflows. Replaces any existing state.
  void restore_state(recovery::StateReader& r);

  /// Publishes a checksummed `snap-<seq>.swsnap` of save_state() in `dir`
  /// (atomic tmp+rename, newest two kept; see recovery/snapshot.hpp).
  void checkpoint(const std::string& dir, std::uint64_t seq) const;
  /// Loads the newest usable snapshot in `dir` (fingerprint-checked
  /// against this master's configuration) into this master. Returns false
  /// — leaving the master untouched — when no usable snapshot exists.
  bool restore_from(const std::string& dir);

  /// Identity of the configuration the snapshots are only valid under
  /// (ports, NIC rate, codec model, headroom, compression and degradation
  /// knobs).
  std::uint64_t config_fingerprint() const;

  /// Fail-over re-registration: re-inserts a coflow under its ORIGINAL ref
  /// (receivers blocked in pull() hold that ref) when a replacement master
  /// cold-starts from the workers' registration logs. No-op if the ref is
  /// already present (the snapshot got there first). Priority restarts at
  /// the base class — the upgrade ladder re-ages it. Throws as add() does.
  void restore_coflow(CoflowRef ref, CoflowInfo info);

  bool has_coflow(CoflowRef ref) const;
  /// Every registered coflow's ref, ascending.
  std::vector<CoflowRef> coflow_refs() const;

 private:
  /// One flow of a registered coflow.
  struct FlowState {
    FlowInfo info;
    bool beta = false;  ///< compression switch of the last applied result
    int failures = 0;   ///< codec/corruption failures recorded against it
  };
  struct Entry {
    std::vector<FlowState> flows;
    double priority = 1.0;  ///< Pseudocode 3's priority class P
    double key = std::numeric_limits<double>::infinity();  ///< key_of
  };

  /// The snapshot layout, listed once for both directions.
  template <class Self, class IO>
  static void fields(Self& m, IO& io);
  /// The registered flow `id` (const through a const master), or null.
  template <class Self>
  static auto* find_flow(Self& m, RtFlowId id);

  /// Registers `info` under `ref`; throws as add() does.
  void insert_locked(CoflowRef ref, CoflowInfo info);
  /// Adds `entry`'s flows to the flow index, or, adding none, returns a
  /// flow id the index (or an earlier flow of `entry`) already holds.
  std::optional<RtFlowId> index_locked(CoflowRef ref, const Entry& entry);
  bool degraded(const FlowState& f) const {
    return degrade_after_ > 0 && f.failures >= degrade_after_;
  }

  mutable std::mutex mutex_;
  fabric::Fabric fabric_;
  cpu::ConstantCpu cpu_;
  codec::CodecModel codec_;
  core::EvalEnv env_;  ///< the three above; codec null when compression is off
  obs::Tracer* sink_;
  int degrade_after_;
  std::size_t degraded_count_ = 0;
  CoflowRef next_ref_ = 1;
  std::map<CoflowRef, Entry> coflows_;
  /// flow id -> (owning coflow, position in its flows). Derived from
  /// coflows_: never serialized, rebuilt (and checked) on restore.
  std::map<RtFlowId, std::pair<CoflowRef, std::size_t>> index_;
};

}  // namespace swallow::runtime
