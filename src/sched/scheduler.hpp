// Scheduler interface shared by the baselines and FVDF.
//
// The simulation engine invokes schedule() at every preemption point (coflow
// arrival, flow/coflow completion, compression-finished) observed at a slice
// boundary. A scheduler returns a complete Allocation: per-flow transmit
// rates plus the per-flow compression switch. Only FVDF ever enables
// compression; the paper's baselines are pure transmission schedulers.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "codec/codec_model.hpp"
#include "cpu/cpu_model.hpp"
#include "fabric/allocation.hpp"
#include "fabric/coflow.hpp"
#include "fabric/fabric.hpp"
#include "recovery/state_io.hpp"

namespace swallow::obs {
class Tracer;
}

namespace swallow::sched {

class DirtyTracker;

struct SchedContext {
  const fabric::Fabric* fabric = nullptr;
  const cpu::CpuProvider* cpu = nullptr;
  common::Seconds now = 0;
  common::Seconds slice = common::kDefaultSlice;
  /// Unfinished flows of arrived coflows.
  std::vector<const fabric::Flow*> flows;
  /// Arrived, uncompleted coflows. Mutable: FVDF updates priority classes.
  std::vector<fabric::Coflow*> coflows;
  /// Resets the per-round vectors while keeping their capacity, so one
  /// context object can be reused across scheduling rounds.
  void clear_round() {
    flows.clear();
    coflows.clear();
  }
  /// Codec available for compression; nullptr disables compression globally.
  const codec::CodecModel* codec = nullptr;
  /// True when this preemption point is a coflow arrival or completion
  /// (the paper's Pseudocode 3 upgrades priority classes only then; flow
  /// completions and compression-finished events reschedule without aging).
  bool coflow_event = true;
  /// Observability sink for per-decision trace events (Γ_C, priority
  /// classes, β switches, starvation promotions). Null disables tracing at
  /// the cost of one branch per site. Attaching a sink changes what is
  /// logged, never what is computed.
  obs::Tracer* sink = nullptr;
  /// Dirty-set event feed (dirty.hpp), owned by the simulation engine in
  /// both engine modes. FVDF, SEBF, AALO and DEADLINE-FVDF re-evaluate only
  /// the coflows it names. Hand-built contexts may leave it null: those
  /// schedulers then treat every coflow as dirty on every call (the same
  /// code path, rebuilt from scratch).
  DirtyTracker* tracker = nullptr;
  /// Scratch for transmittable_flows(): reused across rounds so the stall
  /// filter stops allocating once its capacity stabilizes.
  mutable std::vector<const fabric::Flow*> transmittable_scratch;
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual std::string name() const = 0;
  virtual fabric::Allocation schedule(const SchedContext& ctx) = 0;

  /// Checkpoint/restore hooks (DESIGN.md section 13). A scheduler saves
  /// exactly its *non-derivable* mutable state — for FVDF variants the
  /// starvation round stamps; session-keyed incremental caches (rank
  /// indexes, Γ memos, β tables, horizon stamps) are deliberately excluded:
  /// they are rebuilt from scratch when the scheduler sees the restored
  /// run's fresh DirtyTracker session, and a rebuild is byte-equivalent to
  /// the warm caches (test_incremental checks both against a naive
  /// recompute). Stateless schedulers inherit these no-ops. A stateful
  /// scheduler lists its fields once, in a field list both hooks run
  /// (recovery/state_io.hpp), so the two directions cannot disagree;
  /// restore_state then also drops any live incremental bindings so a
  /// reused instance cannot serve stale-session state.
  virtual void save_state(recovery::StateWriter& w) const { (void)w; }
  virtual void restore_state(recovery::StateReader& r) { (void)r; }
};

/// Flows sorted by a coflow-level key: every flow of the first coflow
/// precedes every flow of the second, flows within a coflow keep id order.
/// Shared by FIFO(coflow mode)/SEBF/SCF/NCF/LCF-style orderings.
std::vector<const fabric::Flow*> order_flows_by_coflow(
    const SchedContext& ctx, const std::vector<fabric::CoflowId>& coflow_order);
std::vector<const fabric::Flow*> order_flows_by_coflow(
    std::vector<const fabric::Flow*> flows,
    const std::vector<fabric::CoflowId>& coflow_order);

/// True when the flow cannot transmit at this instant: its source or
/// destination port has zero *current* capacity (failed link under the
/// degradation model). Such flows stall — they take no allocation slot and
/// accrue waiting time until the link recovers.
inline bool link_stalled(const fabric::Flow& flow,
                         const fabric::Fabric& fabric) {
  return fabric.ingress_capacity(flow.src) <= 0.0 ||
         fabric.egress_capacity(flow.dst) <= 0.0;
}

/// ctx.flows minus the stalled ones (order preserved). Every policy
/// allocates over this set, so rates are always priced against current
/// port capacities and a failed link never absorbs an allocation.
/// The result lives in ctx.transmittable_scratch and is reused across
/// rounds: it stays valid until the next transmittable_flows() call on the
/// same context, so callers that mutate the order must copy it first.
const std::vector<const fabric::Flow*>& transmittable_flows(
    const SchedContext& ctx);

}  // namespace swallow::sched
