// Synthetic coflow trace generation.
//
// Two generators:
//  - generate_trace: Poisson coflow arrivals, heavy-tailed widths and flow
//    sizes. The default size distribution is a bounded Pareto calibrated to
//    the paper's Fig. 1 (about 89% of flows below 10 GB while flows above
//    10 GB carry over 90% of the bytes).
//  - generate_fig1_trace: a convenience preset for the Fig. 1 reproduction.
#pragma once

#include <cstdint>

#include "workload/trace.hpp"

namespace swallow::workload {

struct GeneratorConfig {
  std::size_t num_ports = 50;
  std::size_t num_coflows = 100;
  /// Mean coflow inter-arrival time (Poisson process).
  common::Seconds mean_interarrival = 1.0;

  /// Flow sizes: bounded Pareto [size_lo, size_hi] with shape alpha.
  /// alpha = 0.08 over [100 KB, 100 GB] matches the Fig. 1 CDFs.
  common::Bytes size_lo = 100 * common::kKB;
  common::Bytes size_hi = 100 * common::kGB;
  double size_alpha = 0.08;

  /// Coflow width (number of flows): uniform in [width_lo, width_hi].
  /// A coflow's flows leave from distinct sender ports (shuffle semantics:
  /// mappers on distinct machines feed one reducer wave), so width_hi must
  /// not exceed num_ports. 95% of coflows carry compressible payloads.
  std::size_t width_lo = 1;
  std::size_t width_hi = 10;

  /// SLO knobs: this fraction of coflows receives a deadline equal to its
  /// isolation CCT (bottleneck-port bytes / deadline_ref_bandwidth) times a
  /// slack multiplier drawn uniformly from [deadline_slack_lo,
  /// deadline_slack_hi]. Deadline draws use a dedicated RNG stream derived
  /// from `seed`, so deadline_fraction = 0 (the default) leaves the
  /// generated trace byte-identical to the pre-deadline generator.
  double deadline_fraction = 0.0;
  common::Bps deadline_ref_bandwidth = common::mbps(100);
  double deadline_slack_lo = 1.5;
  double deadline_slack_hi = 4.0;

  std::uint64_t seed = 42;
};

Trace generate_trace(const GeneratorConfig& config);

/// Large-sample preset used by the Fig. 1 bench (many flows, wide range).
Trace generate_fig1_trace(std::size_t num_flows = 20000,
                          std::uint64_t seed = 42);

}  // namespace swallow::workload
