#include "workload/apps.hpp"

#include <cmath>
#include <stdexcept>

#include "codec/synth_data.hpp"

namespace swallow::workload {

CoflowSpec AppWorkload::make_coflow(fabric::CoflowId id, fabric::JobId job,
                                    common::Seconds arrival,
                                    std::size_t num_ports,
                                    common::Rng& rng) const {
  if (num_ports == 0) throw std::invalid_argument("make_coflow: zero ports");
  CoflowSpec coflow;
  coflow.id = id;
  coflow.job = job;
  coflow.arrival = arrival;

  const std::size_t flows = mappers * reducers;
  const common::Bytes mean_flow =
      shuffle_bytes / static_cast<double>(flows);
  coflow.flows.reserve(flows);
  for (std::size_t m = 0; m < mappers; ++m) {
    for (std::size_t r = 0; r < reducers; ++r) {
      FlowSpec flow;
      flow.src = static_cast<fabric::PortId>(
          (rng.uniform_int(0, num_ports - 1)));
      flow.dst = static_cast<fabric::PortId>(
          (rng.uniform_int(0, num_ports - 1)));
      // Mild skew: sigma 0.25 keeps partitions within ~2x of each other.
      flow.bytes = mean_flow * rng.lognormal(-0.03125, 0.25);
      flow.compressible = compress_ratio < 0.95;
      flow.compress_ratio = compress_ratio;  // Table I, per application
      coflow.flows.push_back(flow);
    }
  }
  return coflow;
}

std::vector<AppWorkload> hibench_suite(common::Bytes suite_bytes) {
  // Names and ratios are Table I's, from codec::table1_apps(); each shape
  // row is the app at the same index. Relative shuffle weights follow the
  // uncompressed columns of Table I: Terasort and Sort dominate, the ML
  // apps are small.
  struct Shape {
    double weight;  // relative uncompressed shuffle volume
    std::size_t mappers, reducers;
  };
  static constexpr Shape kShapes[] = {
      {0.013, 8, 4},   // Wordcount
      {8.85, 8, 8},    // Sort
      {91.0, 16, 8},   // Terasort
      {0.006, 4, 2},   // Enhanced DFSIO
      {0.020, 4, 2},   // Logistic Regression
      {0.002, 4, 2},   // Latent Dirichlet Allocation
      {0.001, 2, 1},   // Support Vector Machine
      {0.024, 4, 2},   // Bayes
      {0.004, 4, 2},   // Random Forest
      {0.191, 8, 4},   // Pagerank
      {0.038, 4, 2},   // NWeight
  };
  const std::vector<codec::AppProfile>& apps = codec::table1_apps();
  if (apps.size() != std::size(kShapes))
    throw std::logic_error("hibench_suite: one shape per Table I app");
  double total_weight = 0;
  for (const Shape& shape : kShapes) total_weight += shape.weight;

  std::vector<AppWorkload> suite;
  suite.reserve(apps.size());
  for (std::size_t i = 0; i < apps.size(); ++i) {
    AppWorkload app;
    app.name = apps[i].name;
    app.compress_ratio = apps[i].paper_ratio;
    app.shuffle_bytes = suite_bytes * kShapes[i].weight / total_weight;
    app.mappers = kShapes[i].mappers;
    app.reducers = kShapes[i].reducers;
    suite.push_back(std::move(app));
  }
  return suite;
}

Trace hibench_trace(common::Bytes suite_bytes, std::size_t rounds,
                    std::size_t num_ports, common::Seconds mean_interarrival,
                    std::uint64_t seed) {
  common::Rng rng(seed);
  const auto suite = hibench_suite(suite_bytes);
  Trace trace;
  trace.num_ports = num_ports;
  common::Seconds now = 0;
  fabric::CoflowId next_id = 0;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (const auto& app : suite) {
      trace.coflows.push_back(
          app.make_coflow(next_id, next_id, now, num_ports, rng));
      ++next_id;
      now += rng.exponential(1.0 / mean_interarrival);
    }
  }
  trace.sort_by_arrival();
  return trace;
}

}  // namespace swallow::workload
