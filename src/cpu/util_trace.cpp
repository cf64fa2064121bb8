#include "cpu/util_trace.hpp"

#include <stdexcept>

namespace swallow::cpu {

namespace {

constexpr double kComputeUtilization = 0.92;
constexpr double kTransferUtilization = 0.08;
constexpr double kTransferSpikeProb = 0.27;
constexpr double kComputeDipProb = 0.15;
constexpr common::Seconds kSamplePeriod = 0.5;

}  // namespace

std::vector<UtilSample> generate_util_trace(const UtilTraceConfig& config) {
  if (config.bandwidth <= 0)
    throw std::invalid_argument("util_trace: non-positive bandwidth");
  if (config.transfer_bytes <= 0)
    throw std::invalid_argument("util_trace: non-positive transfer size");

  common::Rng rng(config.seed);
  std::vector<UtilSample> out;

  common::Seconds t = 0;
  bool computing = true;
  common::Seconds phase_end =
      rng.exponential(1.0 / config.compute_time);
  for (common::Seconds s = 0; s < config.horizon; s += kSamplePeriod) {
    while (s >= phase_end) {
      t = phase_end;
      computing = !computing;
      const common::Seconds mean =
          computing ? config.compute_time
                    : config.transfer_bytes / config.bandwidth;
      phase_end = t + rng.exponential(1.0 / mean);
    }
    double base;
    if (computing) {
      base = rng.bernoulli(kComputeDipProb) ? kTransferUtilization + 0.07
                                            : kComputeUtilization;
    } else {
      base = rng.bernoulli(kTransferSpikeProb) ? kComputeUtilization - 0.07
                                               : kTransferUtilization;
    }
    // Small jitter so the trace looks like a real sampled record.
    const double jitter = rng.uniform(-0.05, 0.05);
    double u = base + jitter;
    if (u < 0.0) u = 0.0;
    if (u > 1.0) u = 1.0;
    out.push_back({s, u});
  }
  return out;
}

double idle_fraction(const std::vector<UtilSample>& trace, double threshold) {
  if (trace.empty()) return 0.0;
  std::size_t idle = 0;
  for (const auto& s : trace)
    if (s.utilization < threshold) ++idle;
  return static_cast<double>(idle) / static_cast<double>(trace.size());
}

}  // namespace swallow::cpu
