// CPU-utilization trace generator reproducing the paper's Fig. 2: a worker
// alternates compute phases (CPU-bound) and transfer phases (I/O-bound); at
// low bandwidth the transfer phases stretch, so idle CPU periods dominate.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"

namespace swallow::cpu {

struct UtilSample {
  common::Seconds t;
  double utilization;  ///< in [0, 1]
};

struct UtilTraceConfig {
  common::Bps bandwidth = 0;              ///< NIC speed during transfers
  common::Seconds compute_time = 4.0;     ///< mean compute phase length
  common::Bytes transfer_bytes = 0;       ///< mean bytes shuffled per phase
  common::Seconds horizon = 120.0;
  std::uint64_t seed = 7;
};

/// Samples utilization every 0.5 s over the horizon. A compute sample reads
/// about 92% busy and a transfer sample about 8%, but real transfers still
/// show CPU spikes (deserialization, JVM GC: 27% of transfer samples are
/// busy anyway) and compute phases still show stalls (sync barriers,
/// stragglers: 15% of compute samples are idle anyway).
std::vector<UtilSample> generate_util_trace(const UtilTraceConfig& config);

/// Fraction of samples with utilization below `threshold` ("idle periods",
/// the blank areas of Fig. 2).
double idle_fraction(const std::vector<UtilSample>& trace,
                     double threshold = 0.25);

}  // namespace swallow::cpu
