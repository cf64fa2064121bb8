// Metrics captured by a simulation run: per-flow, per-coflow and per-job
// completion records plus traffic accounting, with the derived statistics
// the paper reports (average FCT/CCT/JCT, CDFs, per-time-unit job
// throughput, traffic reduction).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/cdf.hpp"
#include "common/units.hpp"
#include "fabric/coflow.hpp"

namespace swallow::sim {

struct FlowRecord {
  fabric::FlowId id = 0;
  fabric::CoflowId coflow = 0;
  fabric::JobId job = 0;
  common::Bytes original_bytes = 0;  ///< uncompressed size
  common::Bytes wire_bytes = 0;      ///< bytes actually transmitted
  common::Seconds arrival = 0;
  /// kNeverCompleted (negative) when the flow's coflow was rejected or shed
  /// by the SLO admission layer; such records are excluded from the FCT
  /// aggregates below.
  common::Seconds completion = 0;
  common::Seconds fct() const { return completion - arrival; }
  bool completed() const { return completion >= 0; }
};

struct CoflowRecord {
  fabric::CoflowId id = 0;
  fabric::JobId job = 0;
  std::size_t width = 0;
  common::Bytes original_bytes = 0;
  common::Bytes wire_bytes = 0;
  common::Seconds arrival = 0;
  /// kNeverCompleted (negative) when rejected/shed; excluded from CCT
  /// aggregates.
  common::Seconds completion = 0;
  /// CCT lower bound: the coflow's effective bottleneck with the whole
  /// fabric to itself at arrival (Varys' normalization baseline).
  common::Seconds isolation_bound = 0;
  /// Absolute SLO deadline; fabric::kNoDeadline (+inf) when best-effort.
  common::Seconds deadline = fabric::kNoDeadline;
  /// Refused at arrival or shed mid-flight by the admission layer.
  bool rejected = false;
  common::Seconds cct() const { return completion - arrival; }
  bool completed() const { return completion >= 0; }
  bool has_deadline() const { return deadline < fabric::kNoDeadline; }
  /// Completed at or before its deadline (false for best-effort coflows).
  bool deadline_met() const {
    return has_deadline() && completed() && completion <= deadline;
  }
  /// CCT / isolation bound; >= 1 up to slice granularity.
  double normalized_cct() const {
    return isolation_bound > 0 ? cct() / isolation_bound : 0.0;
  }
};

struct JobRecord {
  fabric::JobId id = 0;
  common::Seconds arrival = 0;
  common::Seconds completion = 0;
  common::Seconds jct() const { return completion - arrival; }
};

/// One sample of fabric-wide utilization (enabled via
/// SimConfig::utilization_sample_period).
struct UtilizationSample {
  common::Seconds t = 0;
  double egress_utilization = 0;  ///< wire bytes moved / fabric capacity
};

/// What the fabric degradation layer did to a run (all zero when
/// SimConfig::degradation is disabled).
struct DegradationStats {
  std::uint64_t capacity_changes = 0;    ///< port multiplier transitions
  std::uint64_t link_failures = 0;       ///< transitions to multiplier == 0
  std::uint64_t stalled_flow_slices = 0; ///< (flow, slice) pairs stuck on a
                                         ///< zero-capacity port
  std::uint64_t compression_flips = 0;   ///< beta decisions that reversed
                                         ///< after the flow's first slice
};

/// What the SLO admission layer did to a run (all zero when
/// SimConfig::admission is disabled).
struct SloStats {
  std::uint64_t with_deadline = 0;   ///< arrived coflows carrying a deadline
  std::uint64_t admitted = 0;        ///< admission verdict kAdmit
  std::uint64_t degraded = 0;        ///< kDegrade: compression priced out
  std::uint64_t deferred = 0;        ///< kDefer: infeasible at arrival
  std::uint64_t rejected = 0;        ///< kReject: dropped at arrival
  std::uint64_t shed_midflight = 0;  ///< expired mid-flight, volume dropped
  common::Bytes shed_bytes = 0;      ///< remaining volume discarded by both
  /// Capacity-change re-pricing (DESIGN.md section 12): commitments shed
  /// early (hopeless at nominal with remaining volume) and commitments
  /// withdrawn (infeasible on the degraded fabric; coflow demoted to
  /// deferred and served by leftovers).
  std::uint64_t repriced_shed = 0;
  std::uint64_t repriced_demoted = 0;
};

class Metrics {
 public:
  std::vector<FlowRecord> flows;
  std::vector<CoflowRecord> coflows;
  std::vector<UtilizationSample> utilization;
  DegradationStats degradation;
  SloStats slo;

  double avg_fct() const;
  double avg_cct() const;
  double avg_jct() const;
  /// Mean CCT / isolation-bound over coflows with a positive bound.
  double avg_normalized_cct() const;

  common::Cdf fct_cdf() const;
  common::Cdf cct_cdf() const;

  /// Jobs aggregated from coflow records (job arrival = earliest coflow
  /// arrival, completion = latest coflow completion).
  std::vector<JobRecord> jobs() const;

  common::Bytes total_original_bytes() const;
  common::Bytes total_wire_bytes() const;
  /// 1 - wire/original: the paper's "traffic reduction".
  double traffic_reduction() const;

  /// Table V: cumulative jobs completed by the end of each of `units` time
  /// units of length `unit` seconds (measured from t = 0).
  std::vector<std::size_t> cumulative_jobs_per_unit(common::Seconds unit,
                                                    std::size_t units) const;

  /// Completion time of the last flow.
  common::Seconds makespan() const;

  /// Average FCT restricted to flows with original size in [lo, hi).
  double avg_fct_in_size_band(common::Bytes lo, common::Bytes hi) const;

  /// Mean egress utilization over the sampled horizon (0 if not sampled).
  double mean_utilization() const;

  // ---- SLO aggregates (trivial when the trace carries no deadlines) ----
  /// Number of coflows that arrived with a finite deadline.
  std::size_t deadline_coflows() const;
  /// Deadline coflows that completed at or before their deadline.
  std::size_t deadlines_met() const;
  /// deadlines_met / deadline_coflows; 1.0 when the trace has no deadlines.
  double deadline_met_fraction() const;
  /// Wire bytes of useful work: coflows that completed and either had no
  /// deadline or met it. Shed and deadline-missing traffic is excluded.
  common::Bytes goodput_bytes() const;
};

}  // namespace swallow::sim
