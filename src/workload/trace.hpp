// Coflow trace records and the on-disk text format.
//
// The format follows the layout of the public Facebook coflow benchmark
// (the trace Varys/Aalo were evaluated on): a header with the fabric size
// and coflow count, then one block per coflow listing its flows.
//
//   <num_ports> <num_coflows>
//   <coflow_id> <arrival_ms> <job_id> <num_flows>
//   <src_port> <dst_port> <bytes> <compressible 0|1>
//   ...
//
// Deadline extension (backward compatible): when the header line ends with
// the literal directive `deadlines`, every coflow header carries one extra
// column — the coflow's deadline in milliseconds *relative to its arrival*,
// with 0 meaning best-effort (no deadline). The directive is unambiguous
// because coflow ids are numeric, and traces without it parse (and
// round-trip through write_trace) byte-identically to the original format.
//
//   <num_ports> <num_coflows> deadlines
//   <coflow_id> <arrival_ms> <job_id> <num_flows> <deadline_ms>
//   ...
#pragma once

#include <cstddef>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "fabric/coflow.hpp"

namespace swallow::workload {

/// Typed parse failure naming the 1-based input line it was detected on.
/// Derives from std::runtime_error, so pre-existing catch sites keep
/// working; new code can catch the typed form and report `line()`.
class TraceParseError : public std::runtime_error {
 public:
  TraceParseError(std::size_t line, const std::string& message);
  std::size_t line() const { return line_; }

 private:
  std::size_t line_;
};

struct FlowSpec {
  fabric::PortId src = 0;
  fabric::PortId dst = 0;
  common::Bytes bytes = 0;
  bool compressible = true;
  /// Per-flow compression ratio (compressed/raw); 0 means "use the codec
  /// model's ratio". Set by the HiBench app builder so simulated apps
  /// compress at their Table I ratios. Not serialized in the text format.
  double compress_ratio = 0;
  /// Registration delay of this flow relative to its coflow's arrival.
  /// Only orders FIFO service within simultaneous arrivals (flows of one
  /// shuffle reach the switch in I/O order, not all at once); not
  /// serialized in the text format.
  common::Seconds arrival_offset = 0;
};

struct CoflowSpec {
  fabric::CoflowId id = 0;
  fabric::JobId job = 0;
  common::Seconds arrival = 0;
  /// SLO deadline relative to arrival; 0 (the default) means best-effort.
  /// Serialized as the optional `deadlines` column (milliseconds).
  common::Seconds deadline = 0;
  std::vector<FlowSpec> flows;

  common::Bytes total_bytes() const;
  std::size_t width() const { return flows.size(); }
  bool has_deadline() const { return deadline > 0; }
};

struct Trace {
  std::size_t num_ports = 0;
  std::vector<CoflowSpec> coflows;

  std::size_t total_flows() const;
  common::Bytes total_bytes() const;
  /// True when any coflow carries a deadline (write_trace then emits the
  /// `deadlines` directive and the extra column).
  bool has_deadlines() const;
  /// Coflows sorted by arrival time (the simulator requires this order).
  void sort_by_arrival();
};

/// Parses the text format above; throws TraceParseError (a
/// std::runtime_error) naming the offending line on malformed input:
/// truncated blocks, non-numeric tokens, NaN/infinite/negative/overflowing
/// sizes or arrivals, ports outside [0, num_ports), duplicate coflow ids.
Trace parse_trace(std::istream& in);
Trace parse_trace_file(const std::string& path);

void write_trace(std::ostream& out, const Trace& trace);

/// Returns a copy keeping only the largest `fraction` of flows by byte count
/// (the paper's "97% / 95% of traces" filtering drops the smallest flows).
/// Coflows left empty are removed.
Trace filter_smallest_flows(const Trace& trace, double keep_fraction);

/// Parses the public Facebook coflow benchmark format (the trace Varys and
/// Aalo were evaluated on; github.com/coflow/coflow-benchmark):
///
///   <num_racks> <num_jobs>
///   <job_id> <arrival_ms> <num_mappers> <rack>... <num_reducers>
///       <rack>:<shuffle_MB>...
///
/// Each reducer receives one flow from every mapper; a reducer's shuffle
/// megabytes split evenly across its mappers. Rack numbers are 1-based in
/// the published trace and map to ports 0..num_racks-1.
Trace parse_facebook_trace(std::istream& in);
Trace parse_facebook_trace_file(const std::string& path);

}  // namespace swallow::workload
