// Dirty-set propagation for incremental scheduling (DESIGN.md section 11).
//
// The simulation engine owns one DirtyTracker per run and feeds it every
// event that can change a coflow's scheduling inputs: coflow arrivals, flow
// and compression completions, per-port capacity-multiplier changes,
// CPU-headroom changes and priority upgrades. A scheduler consumes the
// accumulated set at each decision point and recomputes only the marked
// coflows; everything else keeps its memoized Γ components and its slot in
// the rank index (rank_index.hpp). Port-indexed reverse maps (fabric port →
// resident coflows) make capacity and CPU events precise: a brownout on
// port p dirties exactly the coflows with a flow incident on p.
//
// Correctness contract: over-dirtying is always safe — recomputing a clean
// coflow reproduces its cached values bit-for-bit — while under-dirtying
// silently desynchronizes the cache, so every mark below errs on the side
// of marking. Flow and coflow ids must be dense (the engine's are). The
// tracker is single-producer single-consumer within one run; `session()` is
// process-unique so a scheduler can detect that it is seeing a different
// run (or a restarted one) and rebuild from scratch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cpu/cpu_model.hpp"
#include "fabric/coflow.hpp"
#include "sched/scheduler.hpp"

namespace swallow::sched {

/// How much of a coflow's cached scheduling state an event invalidated.
enum class DirtyLevel : std::uint8_t {
  kClean = 0,
  /// Only the priority class moved: Γ_C stands, the rank key must be
  /// re-derived (adjusted Γ = Γ / priority) — a pure decrease/increase-key.
  kKeyOnly = 1,
  /// Volumes, membership, port capacities or CPU headroom changed: the Γ
  /// components must be recomputed from the flow set.
  kRecompute = 2,
};

class DirtyTracker {
 public:
  explicit DirtyTracker(std::size_t num_ports);
  DirtyTracker(const DirtyTracker&) = delete;
  DirtyTracker& operator=(const DirtyTracker&) = delete;

  /// Process-unique id of this tracker instance; schedulers key their
  /// caches on it so stale state from a previous run can never leak in.
  std::uint64_t session() const { return session_; }

  /// Binds the engine's dense flow table. The pointer must stay valid (no
  /// reallocation) for the tracker's lifetime — the engine reserves its
  /// flow vector up front, so this holds by construction.
  void bind_flows(const fabric::Flow* flows, std::size_t count);
  const fabric::Flow& flow(fabric::FlowId id) const { return flows_[id]; }
  std::size_t flow_count() const { return flow_count_; }

  // ---- producer side (the engine's event loop) ----

  /// A coflow arrived: registers its flows' port residency and marks it for
  /// recompute. The pointer must stay valid for the tracker's lifetime.
  void coflow_arrived(const fabric::Coflow* c);
  /// Membership or volume changed inside the coflow (flow completion,
  /// compression-finished event).
  void coflow_changed(fabric::CoflowId c);
  /// The coflow was served by the previous allocation (positive rate or
  /// β = 1 on some flow): its volumes drained, so Γ is stale.
  void flow_progressed(fabric::CoflowId c);
  /// Priority class moved (Pseudocode 3's Upgrade): key-only.
  void priority_changed(fabric::CoflowId c);
  /// A port's capacity multiplier changed: dirties exactly the coflows
  /// resident on the port (and lazily prunes completed residents).
  void port_capacity_changed(fabric::PortId p);
  /// Samples per-port CPU headroom and dirties the coflows sourced at ports
  /// whose headroom changed since the previous sample. Call once per
  /// decision point, before schedule().
  void sample_cpu(const cpu::CpuProvider& cpu, common::Seconds now);

  // ---- consumer side (the scheduler) ----

  /// The registered coflow, or nullptr if the id never arrived.
  const fabric::Coflow* coflow(fabric::CoflowId c) const {
    return c < coflows_.size() ? coflows_[c] : nullptr;
  }
  /// Ids marked since the last consume(), in first-marked order.
  const std::vector<fabric::CoflowId>& dirty() const { return dirty_; }
  DirtyLevel level(fabric::CoflowId c) const {
    return c < level_.size() ? level_[c] : DirtyLevel::kClean;
  }
  /// Clears the dirty set. Single consumer: a scheduler that never reads
  /// the set (a baseline without memoized state) leaves it to accumulate.
  void consume();

  // ---- introspection (tests) ----
  const std::vector<fabric::CoflowId>& src_residents(fabric::PortId p) const {
    return src_residents_[p];
  }
  const std::vector<fabric::CoflowId>& dst_residents(fabric::PortId p) const {
    return dst_residents_[p];
  }

 private:
  void mark(fabric::CoflowId c, DirtyLevel lvl);
  /// Marks every live resident in `v` for recompute, compacting out the
  /// completed ones as it goes (lazy pruning: no removal on completion).
  void dirty_residents(std::vector<fabric::CoflowId>& v);

  std::uint64_t session_;
  const fabric::Flow* flows_ = nullptr;
  std::size_t flow_count_ = 0;

  std::vector<const fabric::Coflow*> coflows_;  ///< by dense coflow id
  std::vector<DirtyLevel> level_;               ///< by dense coflow id
  std::vector<fabric::CoflowId> dirty_;

  /// Port → coflows with a flow sourced / sinking there. Registration
  /// dedupes per coflow; entries outlive completion until lazily pruned.
  std::vector<std::vector<fabric::CoflowId>> src_residents_;
  std::vector<std::vector<fabric::CoflowId>> dst_residents_;

  /// Last-sampled per-port CPU headroom for change detection.
  std::vector<double> cpu_headroom_;
  bool cpu_sampled_ = false;
};

/// A dirty-set scheduler's flow lookup and memo binding for one round.
/// With a tracker in the context, flows come from the engine's dense table
/// and the memo stays valid for the tracker's session. Without one
/// (hand-built contexts, bench twin worlds) every round is a rebuild —
/// every coflow dirty — and flows resolve through a round-local id table
/// built from ctx.flows; a flow absent from ctx.flows reads as finished.
class RoundFlows {
 public:
  /// Binds this round's context. True when the scheduler must rebuild its
  /// memo from ctx.coflows: there is no tracker, or the memo was built
  /// against another tracker session (a new or restored run).
  bool bind(const SchedContext& ctx);
  /// Forgets the bound session, so the next bind() asks for a rebuild.
  void reset() { session_ = 0; }

  /// The flow by id; it must be known to this round.
  const fabric::Flow& flow(fabric::FlowId id) const {
    return tracker_ != nullptr ? tracker_->flow(id) : *table_[id];
  }
  /// The flow if this round can schedule it (known and unfinished).
  const fabric::Flow* live(fabric::FlowId id) const {
    const fabric::Flow* f = tracker_ != nullptr ? &tracker_->flow(id)
                            : id < table_.size() ? table_[id]
                                                 : nullptr;
    return f != nullptr && !f->done() ? f : nullptr;
  }
  /// One past the largest flow id this round can resolve.
  std::size_t flow_count() const {
    return tracker_ != nullptr ? tracker_->flow_count() : table_.size();
  }

 private:
  const DirtyTracker* tracker_ = nullptr;
  std::uint64_t session_ = 0;  ///< 0: no session bound (ids start at 1)
  std::vector<const fabric::Flow*> table_;  ///< tracker-less rounds only
};

}  // namespace swallow::sched
