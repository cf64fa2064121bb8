// Deadline admission control (DESIGN.md section 12).
//
// The gate runs once per coflow arrival and prices the coflow's best-case
// completion against its deadline slack, walking the shedding ladder
//   admit -> degrade-to-uncompressed -> defer -> reject
// before the scheduler ever sees the coflow. Estimates are isolation
// bounds (the coflow alone on the *current* fabric): optimistic on purpose —
// a coflow that cannot make its deadline even alone is hopeless under any
// schedule, so rejecting it can only free capacity for feasible work. The
// mid-flight counterpart (defer/expire under contention) lives in
// DEADLINE-FVDF's band ladder (core/online.hpp); expiry shedding lives in
// the engine.
//
// Best-effort starvation protection: admitted deadline coflows commit
// port-level (deadline, bytes) demand. An arrival passes the share guard
// only if the EDF demand bound holds on every port it touches: for each
// committed deadline boundary d at or after the arrival's own deadline,
// the cumulative committed bytes due by d must fit within kMaxSloShare of
// the port's *nominal* capacity over (d - now). One-shot jobs that can
// serialize inside each other's slack both pass (a scalar rate guard would
// reject the second); genuine overload — more promised bytes than the
// shared window can carry — is rejected, and best-effort traffic always
// keeps (1 - kMaxSloShare) of the fabric on paper.
//
// All decisions are pure functions of (coflow, live fabric, CPU headroom,
// codec, committed state), so a fixed seed replays to identical verdicts;
// per decision the cost is O(flows of the arriving coflow), which keeps the
// admission path O(changed) alongside the incremental scheduling core.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "codec/codec_model.hpp"
#include "cpu/cpu_model.hpp"
#include "fabric/coflow.hpp"
#include "fabric/fabric.hpp"
#include "recovery/state_io.hpp"

namespace swallow::core {

/// Cap on the fraction of any port's nominal capacity the EDF demand bound
/// may promise to deadline coflows; arrivals that would overcommit any
/// deadline window are rejected (overload shedding + best-effort starvation
/// protection).
inline constexpr double kMaxSloShare = 0.9;

struct AdmissionConfig {
  /// Master switch. Off (the default) keeps the engine's arrival path
  /// byte-identical to the pre-SLO behavior: every coflow is admitted and
  /// nothing is ever shed. On, a coflow is rejected when even the
  /// *nominal* fabric (no degradation, coflow alone) needs more than its
  /// slack, and a deadline coflow that passed the gate but outlives its
  /// deadline is shed at the first slice boundary past it (engine-side),
  /// instead of draining doomed work as best-effort.
  bool enabled = false;
};

enum class AdmissionVerdict : std::uint8_t {
  kAdmit = 0,    ///< feasible; commit port share
  kDegrade = 1,  ///< feasible only uncompressed: CPU cost priced out by
                 ///< slack, beta forced 0 for the coflow's lifetime
  kDefer = 2,    ///< infeasible on the current (degraded) fabric but not
                 ///< hopeless: admit unpromised, serve by leftovers
  kReject = 3,   ///< hopeless or share-exhausted: drop at arrival
};

struct AdmissionDecision {
  AdmissionVerdict verdict = AdmissionVerdict::kAdmit;
  const char* reason = "best_effort";
  /// Isolation completion estimates backing the verdict (seconds; +inf when
  /// a required port is down / compression unavailable).
  common::Seconds t_uncompressed = 0;  ///< current capacities, beta = 0
  common::Seconds t_compressed = 0;    ///< current capacities, compress all
  common::Seconds t_nominal = 0;       ///< nominal capacities, beta = 0
};

class AdmissionController {
 public:
  AdmissionController(const AdmissionConfig& config,
                      const fabric::Fabric& nominal);

  /// Arrival gate. `now` is the coflow's arrival instant; `live` carries the
  /// current per-port multipliers. Commits port share for kAdmit/kDegrade
  /// verdicts — the caller must release() when the coflow completes or is
  /// shed. Best-effort coflows (no deadline) are always admitted and never
  /// commit share.
  AdmissionDecision admit(const fabric::Coflow& coflow,
                          const std::vector<fabric::Flow>& all_flows,
                          const fabric::Fabric& live,
                          const cpu::CpuProvider& cpu,
                          const codec::CodecModel* codec, common::Seconds now);

  /// Returns the coflow's committed port demand (no-op when none).
  void release(fabric::CoflowId id);

  /// Mid-flight re-pricing at capacity-change preemption points. Arrival
  /// verdicts are priced against the fabric *as it stood then*; a later
  /// brownout can strand a commitment the fabric can no longer honor, and
  /// the stale promise both blocks feasible arrivals (EDF demand bound)
  /// and lets doomed work drain until its expiry. reprice() re-runs the
  /// isolation bounds for every committed coflow against the live fabric
  /// at `now` (remaining volumes: the walk happens at a fold boundary):
  ///   - still hopeless on the *nominal* fabric -> `shed` (the caller
  ///     rejects it mid-flight; the expiry ladder would only catch it at
  ///     its deadline, after burning capacity for the whole slack),
  ///   - infeasible on the live fabric -> `demoted` (commitment released
  ///     here; the caller demotes kAdmitted to kDeferred — allocations do
  ///     not key on the difference, so no reschedule is forced).
  /// The walk is over commitment ids in sorted order, so outcomes are
  /// deterministic and identical across engine modes.
  struct RepriceOutcome {
    std::vector<fabric::CoflowId> shed;
    std::vector<fabric::CoflowId> demoted;
  };
  RepriceOutcome reprice(
      const std::vector<fabric::Flow>& all_flows, const fabric::Fabric& live,
      const cpu::CpuProvider& cpu, const codec::CodecModel* codec,
      common::Seconds now,
      const std::function<const fabric::Coflow&(fabric::CoflowId)>& coflow_of);

  /// Number of committed (not yet released) demands on a port
  /// (tests/diagnostics).
  std::size_t committed_ingress(fabric::PortId p) const {
    return committed_ingress_[p].size();
  }
  std::size_t committed_egress(fabric::PortId p) const {
    return committed_egress_[p].size();
  }

  /// Checkpoint/restore of the committed-demand tables (DESIGN.md section
  /// 13), one field list for both directions. Per-port demand vectors keep
  /// their admit/release order; commitments are written in coflow-id
  /// order. `num_coflows` and `num_flows` size the pools the caller indexes
  /// with the ids held here. restore_state throws recovery::RecoveryError
  /// when the port count does not match this controller's fabric or a
  /// port, coflow or flow id falls outside its range.
  void save_state(recovery::StateWriter& w, std::size_t num_coflows,
                  std::size_t num_flows) const;
  void restore_state(recovery::StateReader& r, std::size_t num_coflows,
                     std::size_t num_flows);

 private:
  /// One admitted coflow's promised demand on one port: the flows crossing
  /// it, due by the absolute `deadline`. Priced at their *live* remaining
  /// volume when later arrivals are tested (a part-served promise shrinks),
  /// released wholesale at completion or shed.
  struct Demand {
    common::Seconds deadline = 0;
    fabric::CoflowId coflow = 0;
    std::vector<fabric::FlowId> flows;
  };

  /// Isolation completion bounds for `coflow` alone at `now` (remaining
  /// volumes). Fills the touched/byte scratch as a side effect — admit()
  /// reads it for the EDF bound and the commit.
  struct Bounds {
    common::Seconds t_cur = 0;   ///< current capacities, uncompressed
    common::Seconds t_comp = 0;  ///< current capacities, compress-all
    common::Seconds t_nom = 0;   ///< nominal capacities, uncompressed
    bool any_compressible = false;
  };
  Bounds price(const fabric::Coflow& coflow,
               const std::vector<fabric::Flow>& all_flows,
               const fabric::Fabric& live, const cpu::CpuProvider& cpu,
               const codec::CodecModel* codec, common::Seconds now);

  /// EDF demand bound on one port: with `add_bytes` due by `add_deadline`
  /// included, every deadline boundary at or after it must satisfy
  ///   sum(remaining bytes due by d) <= kMaxSloShare * capacity * (d - now).
  bool demand_fits(const std::vector<Demand>& committed,
                   const std::vector<fabric::Flow>& all_flows,
                   common::Seconds add_deadline, common::Bytes add_bytes,
                   common::Bps capacity, common::Seconds now) const;

  template <class Self, class IO>
  static void fields(Self& a, IO& io, std::size_t num_coflows,
                     std::size_t num_flows);

  AdmissionConfig config_;
  std::vector<common::Bps> nominal_ingress_;
  std::vector<common::Bps> nominal_egress_;
  std::vector<std::vector<Demand>> committed_ingress_;
  std::vector<std::vector<Demand>> committed_egress_;

  /// Ports each coflow committed demand on, so release() is O(ports
  /// touched by that coflow).
  struct Commitment {
    std::vector<fabric::PortId> ingress;
    std::vector<fabric::PortId> egress;
  };
  std::map<fabric::CoflowId, Commitment> commitments_;

  // Scratch per-port byte loads, reset via the touched lists (decisions stay
  // O(flows of the coflow), not O(ports)).
  std::vector<common::Bytes> ingress_bytes_;
  std::vector<common::Bytes> egress_bytes_;
  std::vector<common::Bytes> compress_raw_;  ///< raw bytes to encode per src
  std::vector<common::Bytes> compress_saved_;  ///< wire bytes encoding saves
  std::vector<fabric::PortId> touched_ingress_;
  std::vector<fabric::PortId> touched_egress_;
};

}  // namespace swallow::core
