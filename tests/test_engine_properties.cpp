// Engine invariants parameterized over every (scheduler, bandwidth) pair:
// whatever the policy, the simulator must conserve bytes, complete every
// flow after its arrival, never beat the physics (per-flow and per-coflow
// lower bounds), and keep traffic reduction consistent with the
// compression switch.
#include <gtest/gtest.h>

#include <tuple>

#include "core/fvdf.hpp"
#include "sim/experiment.hpp"

namespace swallow::sim {
namespace {

using Param = std::tuple<std::string, double /*Mbps*/>;

class EngineProperty : public ::testing::TestWithParam<Param> {
 protected:
  EngineProperty() {
    workload::GeneratorConfig gen;
    gen.num_ports = 8;
    gen.num_coflows = 20;
    gen.mean_interarrival = 0.4;
    gen.size_lo = 5e5;
    gen.size_hi = 3e8;
    gen.size_alpha = 0.2;
    gen.width_hi = 4;
    gen.seed = 2024;
    trace_ = workload::generate_trace(gen);
  }

  Metrics run() {
    const auto& [name, mbps_value] = GetParam();
    const fabric::Fabric fabric(trace_.num_ports,
                                common::mbps(mbps_value));
    const cpu::ConstantCpu cpu(0.9);
    auto sched = make_scheduler(name);
    SimConfig config;
    config.codec = &codec::default_codec_model();
    return run_simulation(trace_, fabric, cpu, *sched, config);
  }

  workload::Trace trace_;
};

TEST_P(EngineProperty, EveryFlowCompletesAfterArrival) {
  const Metrics m = run();
  ASSERT_EQ(m.flows.size(), trace_.total_flows());
  for (const auto& f : m.flows) {
    EXPECT_GT(f.completion, 0.0);
    EXPECT_GE(f.fct(), 0.0);
  }
  ASSERT_EQ(m.coflows.size(), trace_.coflows.size());
  for (const auto& c : m.coflows) EXPECT_GE(c.cct(), 0.0);
}

TEST_P(EngineProperty, WireBytesNeverExceedOriginal) {
  const Metrics m = run();
  for (const auto& f : m.flows) {
    EXPECT_LE(f.wire_bytes, f.original_bytes * (1 + 1e-9));
    EXPECT_GT(f.wire_bytes, 0.0);
  }
}

TEST_P(EngineProperty, TrafficReductionMatchesCompressionSwitch) {
  const Metrics m = run();
  const auto& [name, mbps_value] = GetParam();
  const codec::CodecModel& lz4 = codec::default_codec_model();
  const bool compressing =
      name == "FVDF" && core::beats_bandwidth(lz4.compress_speed * 0.9,
                                              lz4.ratio,
                                              common::mbps(mbps_value));
  if (compressing)
    EXPECT_GT(m.traffic_reduction(), 0.1);
  else
    EXPECT_NEAR(m.traffic_reduction(), 0.0, 1e-9);
}

TEST_P(EngineProperty, FlowsRespectLinkPhysics) {
  const auto& [name, mbps_value] = GetParam();
  const common::Bps bandwidth = common::mbps(mbps_value);
  const Metrics m = run();
  for (const auto& f : m.flows) {
    // A flow can never finish faster than its wire bytes over the link.
    const double lower = f.wire_bytes / bandwidth;
    EXPECT_GE(f.fct(), lower * 0.999 - 0.02)
        << "flow " << f.id << " of size " << f.original_bytes;
  }
}

TEST_P(EngineProperty, CoflowsRespectIsolationBoundModuloCompression) {
  const Metrics m = run();
  for (const auto& c : m.coflows) {
    ASSERT_GT(c.isolation_bound, 0.0);
    // Compression can shrink the transmitted volume to xi of the raw
    // bound; nothing can go below xi * bound.
    const double floor = c.isolation_bound *
                         codec::default_codec_model().ratio * 0.999;
    EXPECT_GE(c.cct(), floor - 0.02) << "coflow " << c.id;
  }
}

TEST_P(EngineProperty, DeterministicAcrossRuns) {
  const Metrics a = run();
  const Metrics b = run();
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i)
    EXPECT_DOUBLE_EQ(a.flows[i].completion, b.flows[i].completion);
}

std::string param_name(const ::testing::TestParamInfo<Param>& info) {
  std::string s = std::get<0>(info.param) + "_" +
                  std::to_string(static_cast<int>(std::get<1>(info.param))) +
                  "Mbps";
  for (auto& c : s)
    if (c == '-') c = '_';
  return s;
}

INSTANTIATE_TEST_SUITE_P(
    SchedulersTimesBandwidths, EngineProperty,
    ::testing::Combine(::testing::Values("FVDF", "FVDF-NC", "SEBF", "FIFO",
                                         "PFF", "WSS", "PFP", "SCF", "NCF",
                                         "LCF", "AALO"),
                       ::testing::Values(100.0, 1000.0)),
    param_name);

}  // namespace
}  // namespace swallow::sim
