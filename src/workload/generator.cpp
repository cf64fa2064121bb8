#include "workload/generator.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "common/rng.hpp"

namespace swallow::workload {

/// Share of coflows whose payload benefits from compression.
constexpr double kCompressibleFraction = 0.95;

Trace generate_trace(const GeneratorConfig& config) {
  if (config.num_ports == 0) throw std::invalid_argument("generator: zero ports");
  if (config.width_lo == 0 || config.width_hi < config.width_lo)
    throw std::invalid_argument("generator: bad width range");
  if (config.width_hi > config.num_ports)
    throw std::invalid_argument(
        "generator: width exceeds port count with distinct senders");
  if (config.deadline_fraction < 0 || config.deadline_fraction > 1)
    throw std::invalid_argument("generator: deadline fraction out of [0,1]");
  if (config.deadline_fraction > 0 &&
      (config.deadline_ref_bandwidth <= 0 || config.deadline_slack_lo <= 0 ||
       config.deadline_slack_hi < config.deadline_slack_lo))
    throw std::invalid_argument("generator: bad deadline slack parameters");

  common::Rng rng(config.seed);
  // Deadlines draw from their own stream so enabling them never perturbs
  // the base trace: the same seed yields the same coflows with or without
  // deadlines attached (the zero-deadline A/B relies on this).
  common::Rng deadline_rng(config.seed ^ 0x5105dead11e5ULL);
  Trace trace;
  trace.num_ports = config.num_ports;
  trace.coflows.reserve(config.num_coflows);

  common::Seconds now = 0;
  std::vector<fabric::PortId> ports(config.num_ports);
  std::iota(ports.begin(), ports.end(), 0u);

  for (std::size_t i = 0; i < config.num_coflows; ++i) {
    CoflowSpec coflow;
    coflow.id = i;
    coflow.job = i;  // one coflow per job unless the jobs module regroups
    coflow.arrival = now;
    now += rng.exponential(1.0 / config.mean_interarrival);

    const std::size_t width = static_cast<std::size_t>(
        rng.uniform_int(config.width_lo, config.width_hi));
    rng.shuffle(ports);
    // Shuffle semantics: `width` mapper outputs spread over a smaller wave
    // of reducers, so receiver ports see real contention.
    const std::size_t num_receivers =
        static_cast<std::size_t>(rng.uniform_int(1, width));
    std::vector<fabric::PortId> receivers(num_receivers);
    for (auto& r : receivers)
      r = static_cast<fabric::PortId>(rng.uniform_int(0, config.num_ports - 1));

    // One size draw per coflow: the flows of a shuffle stage are the
    // partitions of the same dataset, so they are similar-sized (mild
    // lognormal skew), while sizes across coflows stay heavy-tailed.
    const common::Bytes base_size =
        rng.bounded_pareto(config.size_lo, config.size_hi, config.size_alpha);
    const bool compressible = rng.bernoulli(kCompressibleFraction);

    coflow.flows.reserve(width);
    for (std::size_t j = 0; j < width; ++j) {
      FlowSpec flow;
      flow.src = ports[j];
      flow.dst = receivers[j % num_receivers];
      flow.bytes = base_size * rng.lognormal(-0.03125, 0.25);
      flow.compressible = compressible;
      coflow.flows.push_back(flow);
    }

    if (config.deadline_fraction > 0 &&
        deadline_rng.bernoulli(config.deadline_fraction)) {
      // Isolation CCT at the reference port speed: the busiest port's byte
      // load over the reference bandwidth. Slack scales how forgiving the
      // SLO is relative to a contention-free run.
      std::vector<common::Bytes> ingress(config.num_ports, 0);
      std::vector<common::Bytes> egress(config.num_ports, 0);
      common::Bytes bottleneck = 0;
      for (const FlowSpec& f : coflow.flows) {
        ingress[f.src] += f.bytes;
        egress[f.dst] += f.bytes;
        bottleneck = std::max({bottleneck, ingress[f.src], egress[f.dst]});
      }
      const common::Seconds isolation =
          bottleneck / config.deadline_ref_bandwidth;
      coflow.deadline =
          isolation * deadline_rng.uniform(config.deadline_slack_lo,
                                           config.deadline_slack_hi);
    }
    trace.coflows.push_back(std::move(coflow));
  }
  trace.sort_by_arrival();
  return trace;
}

Trace generate_fig1_trace(std::size_t num_flows, std::uint64_t seed) {
  GeneratorConfig config;
  config.num_ports = 100;
  config.width_lo = 1;
  config.width_hi = 1;  // Fig. 1 is about flows, not coflow structure
  config.num_coflows = num_flows;
  config.mean_interarrival = 0.01;
  config.seed = seed;
  return generate_trace(config);
}

}  // namespace swallow::workload
