// HiBench-like application workloads.
//
// The paper's deployment evaluation drives HiBench applications whose
// shuffles produce the intermediate data of Table I. Each AppWorkload
// couples a Table I name and compression ratio (codec::table1_apps(), the
// one copy of the table) with a shuffle geometry, and can emit CoflowSpecs
// for the simulator or byte payloads (via codec::AppProfile) for the
// runtime.
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "workload/trace.hpp"

namespace swallow::workload {

struct AppWorkload {
  std::string name;
  double compress_ratio;        ///< Table I compressed/uncompressed
  common::Bytes shuffle_bytes;  ///< total bytes moved by one shuffle
  std::size_t mappers = 4;
  std::size_t reducers = 2;

  /// Builds one shuffle coflow: mappers x reducers flows, bytes split
  /// evenly with mild lognormal skew (real partitions are never exact).
  CoflowSpec make_coflow(fabric::CoflowId id, fabric::JobId job,
                         common::Seconds arrival, std::size_t num_ports,
                         common::Rng& rng) const;
};

/// The 11 Table I applications with shuffle volumes proportioned like the
/// paper's measurements, scaled so the whole suite moves `suite_bytes`.
std::vector<AppWorkload> hibench_suite(common::Bytes suite_bytes);

/// A trace interleaving `rounds` rounds of the suite with Poisson arrivals.
Trace hibench_trace(common::Bytes suite_bytes, std::size_t rounds,
                    std::size_t num_ports, common::Seconds mean_interarrival,
                    std::uint64_t seed);

}  // namespace swallow::workload
