// CSV export of simulation metrics, for plotting outside the repo
// (gnuplot/pandas). One row per flow / coflow / utilization sample. Doubles
// print at round-trip precision (common::Shortest), so two runs whose CSVs
// are byte-equal computed the same doubles.
#pragma once

#include <iosfwd>

#include "sim/metrics.hpp"

namespace swallow::sim {

/// Columns: flow_id,coflow_id,job_id,original_bytes,wire_bytes,arrival,
/// completion,fct
void write_flows_csv(std::ostream& out, const Metrics& metrics);

/// Columns: coflow_id,job_id,width,original_bytes,wire_bytes,arrival,
/// completion,cct,isolation_bound,normalized_cct,deadline,deadline_met,
/// rejected (deadline prints "inf" for best-effort coflows)
void write_coflows_csv(std::ostream& out, const Metrics& metrics);

/// Columns: t,egress_utilization
void write_utilization_csv(std::ostream& out, const Metrics& metrics);

}  // namespace swallow::sim
