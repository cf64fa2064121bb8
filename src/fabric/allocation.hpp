// Per-slice bandwidth allocations and the rate solvers the schedulers share.
#pragma once

#include <cstddef>
#include <vector>

#include "fabric/coflow.hpp"
#include "fabric/fabric.hpp"

namespace swallow::fabric {

/// A scheduler's decision for one slice: per-flow transmit rates plus the
/// per-flow compression switch (paper's beta).
///
/// Flow ids are dense indices in the simulation engine, so the tables are
/// flat vectors indexed by FlowId and grow on demand; rate()/compress() on
/// an id never set return the documented defaults (0 / false).
class Allocation {
 public:
  void set_rate(FlowId id, common::Bps rate);
  common::Bps rate(FlowId id) const {  ///< 0 if unset
    return id < rates_.size() ? rates_[id] : 0.0;
  }

  bool compress(FlowId id) const {  ///< false if unset
    return id < compress_.size() && compress_[id] != 0;
  }

  /// Installs the whole compression table in one copy: flow `id`
  /// compresses iff flags[id] != 0, and ids beyond `flags` read false. A
  /// scheduler keeps its beta switches in such a table and publishes them
  /// once per round.
  void set_compress_all(std::vector<unsigned char> flags) {
    compress_ = std::move(flags);
  }

  /// Pre-sizes the rate table for flow ids < `max_flow_id` (optional;
  /// set_rate grows it on demand either way).
  void reserve(std::size_t max_flow_id);

 private:
  std::vector<common::Bps> rates_;
  std::vector<unsigned char> compress_;
};

/// Relative tolerance for capacity feasibility checks.
inline constexpr double kFeasibilityTolerance = 1e-6;

/// True iff per-port rate sums respect ingress and egress capacities.
bool feasible(const Allocation& alloc, const std::vector<const Flow*>& flows,
              const Fabric& fabric);

/// Tracks residual port capacity while an allocation is built greedily.
class PortHeadroom {
 public:
  explicit PortHeadroom(const Fabric& fabric);

  /// Max rate flow (src -> dst) can still get: min of the two ports.
  common::Bps available(const Flow& flow) const;
  common::Bps available(PortId src, PortId dst) const;
  /// Consumes `rate` on both of the flow's ports (clamped at zero).
  void consume(const Flow& flow, common::Bps rate);
  void consume(PortId src, PortId dst, common::Bps rate);

  common::Bps ingress(PortId p) const { return ingress_.at(p); }
  common::Bps egress(PortId p) const { return egress_.at(p); }

  /// True when no flow can receive a positive rate anymore: every ingress
  /// port is drained, or every egress port is. Greedy in-order allocators
  /// (FVDF disposal/backfill, SEBF, strict_priority) use this to stop
  /// walking — every grant past this point would be exactly zero, so
  /// breaking early leaves the allocation observably unchanged (rate() of
  /// an unset flow is already 0).
  bool exhausted() const { return open_ingress_ == 0 || open_egress_ == 0; }

 private:
  std::vector<common::Bps> ingress_;
  std::vector<common::Bps> egress_;
  std::size_t open_ingress_ = 0;  ///< ports with ingress headroom > 0
  std::size_t open_egress_ = 0;   ///< ports with egress headroom > 0
};

/// Progressive-filling (weighted) max-min fairness under ingress+egress
/// constraints. With unit weights this is the PFF/FAIR allocation; with
/// volume weights it is Orchestra's WSS.
Allocation weighted_max_min(const std::vector<const Flow*>& flows,
                            const std::vector<double>& weights,
                            const Fabric& fabric);

/// Strict priority: walk `flows` in the given order, give each the full
/// residual min(ingress, egress) of its ports (optionally capped). Used by
/// FIFO (arrival order), PFP/SRTF (smallest remaining) and as the backfill
/// pass of SEBF/FVDF.
Allocation strict_priority(const std::vector<const Flow*>& flows,
                           const Fabric& fabric);

/// MADD (Varys): every flow of the coflow gets remaining/gamma so all finish
/// together at `gamma`; rates are clamped to residual headroom in `headroom`
/// and consumed from it.
void madd_into(Allocation& alloc, const std::vector<const Flow*>& coflow_flows,
               common::Seconds gamma, PortHeadroom& headroom);

/// Work-conserving pass: walk flows in order and top each rate up to the
/// residual headroom of its ports.
void backfill_into(Allocation& alloc, const std::vector<const Flow*>& flows,
                   PortHeadroom& headroom);

}  // namespace swallow::fabric
