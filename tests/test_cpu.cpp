// CPU-model tests: the constant/windowed/bursty providers, the compression
// gate, and the Fig. 2 utilization-trace phenomenology (more idle CPU at
// lower bandwidth).
#include <gtest/gtest.h>

#include "common/units.hpp"
#include "cpu/cpu_model.hpp"
#include "cpu/util_trace.hpp"

namespace swallow::cpu {
namespace {

using common::gbps;
using common::kGB;
using common::kMB;
using common::mbps;

TEST(ConstantCpu, ReturnsConfiguredHeadroom) {
  const ConstantCpu cpu(0.4);
  EXPECT_DOUBLE_EQ(cpu.headroom(0, 0.0), 0.4);
  EXPECT_DOUBLE_EQ(cpu.headroom(99, 1e6), 0.4);
  EXPECT_THROW(ConstantCpu(1.5), std::invalid_argument);
  EXPECT_THROW(ConstantCpu(-0.1), std::invalid_argument);
}

TEST(CpuProvider, CanCompressGate) {
  EXPECT_TRUE(CpuProvider::can_compress(0.5));
  EXPECT_TRUE(CpuProvider::can_compress(kMinCompressionHeadroom));
  EXPECT_FALSE(CpuProvider::can_compress(0.049));
  EXPECT_FALSE(CpuProvider::can_compress(0.0));
}

TEST(WindowedCpu, HeadroomFollowsWindows) {
  const WindowedCpu cpu({{0.0, 1.0}, {3.0, 3.5}});
  EXPECT_DOUBLE_EQ(cpu.headroom(0, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(cpu.headroom(0, 1.0), 0.0);  // half-open interval
  EXPECT_DOUBLE_EQ(cpu.headroom(0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(cpu.headroom(0, 3.25), 1.0);
  EXPECT_DOUBLE_EQ(cpu.headroom(0, 4.0), 0.0);
}

TEST(WindowedCpu, RejectsEmptyWindow) {
  EXPECT_THROW(WindowedCpu({{2.0, 2.0}}), std::invalid_argument);
}

TEST(WindowedCpu, CustomHeadrooms) {
  const WindowedCpu cpu({{0.0, 1.0}}, 0.8, 0.1);
  EXPECT_DOUBLE_EQ(cpu.headroom(0, 0.5), 0.8);
  EXPECT_DOUBLE_EQ(cpu.headroom(0, 2.0), 0.1);
}

class BurstyCpuFraction : public ::testing::TestWithParam<double> {};

TEST_P(BurstyCpuFraction, LongRunIdleShareMatchesConfig) {
  BurstyCpu::Config config;
  config.idle_fraction = GetParam();
  config.horizon = 20000.0;
  config.seed = 5;
  const BurstyCpu cpu(config);
  EXPECT_NEAR(cpu.measured_idle_fraction(0), GetParam(), 0.05);
}

INSTANTIATE_TEST_SUITE_P(Fractions, BurstyCpuFraction,
                         ::testing::Values(0.3, 0.5, 0.7, 0.9));

TEST(BurstyCpu, HeadroomSwitchesBetweenStates) {
  BurstyCpu::Config config;
  config.idle_fraction = 0.5;
  config.busy_headroom = 0.05;
  config.idle_headroom = 0.95;
  const BurstyCpu cpu(config);
  bool saw_busy = false, saw_idle = false;
  for (double t = 0; t < 200; t += 0.5) {
    const double h = cpu.headroom(0, t);
    EXPECT_TRUE(h == 0.05 || h == 0.95);
    saw_busy |= h == 0.05;
    saw_idle |= h == 0.95;
  }
  EXPECT_TRUE(saw_busy);
  EXPECT_TRUE(saw_idle);
}

TEST(BurstyCpu, PastHorizonReturnsSteadyState) {
  BurstyCpu::Config config;
  config.idle_fraction = 0.6;
  config.horizon = 10.0;
  config.busy_headroom = 0.0;
  config.idle_headroom = 1.0;
  const BurstyCpu cpu(config);
  EXPECT_NEAR(cpu.headroom(0, 100.0), 0.6, 1e-12);
}

TEST(BurstyCpu, NodesBeyondScheduleReuseRoundRobin) {
  BurstyCpu::Config config;
  config.nodes = 2;
  const BurstyCpu cpu(config);
  for (double t = 0; t < 50; t += 1.0)
    EXPECT_DOUBLE_EQ(cpu.headroom(0, t), cpu.headroom(2, t));
}

TEST(BurstyCpu, RejectsBadConfig) {
  BurstyCpu::Config config;
  config.nodes = 0;
  EXPECT_THROW(BurstyCpu{config}, std::invalid_argument);
  config.nodes = 1;
  config.idle_fraction = 2.0;
  EXPECT_THROW(BurstyCpu{config}, std::invalid_argument);
}

// ---- Fig. 2: utilization traces. ----

UtilTraceConfig fig2_config(common::Bps bandwidth) {
  UtilTraceConfig config;
  config.bandwidth = bandwidth;
  config.compute_time = 4.0;
  config.transfer_bytes = 1.2 * kGB;
  config.horizon = 600.0;
  return config;
}

TEST(UtilTrace, SamplesCoverHorizon) {
  const auto trace = generate_util_trace(fig2_config(gbps(10)));
  ASSERT_FALSE(trace.empty());
  EXPECT_NEAR(trace.back().t, 600.0, 1.0);
  for (const auto& s : trace) {
    EXPECT_GE(s.utilization, 0.0);
    EXPECT_LE(s.utilization, 1.0);
  }
}

TEST(UtilTrace, LowBandwidthMeansMoreIdleCpu) {
  // Fig. 2: >30% idle at 10 Gbps, >69% idle at 100 Mbps.
  const double idle_fast =
      idle_fraction(generate_util_trace(fig2_config(gbps(10))));
  const double idle_slow =
      idle_fraction(generate_util_trace(fig2_config(mbps(100))));
  EXPECT_GT(idle_slow, idle_fast);
  EXPECT_GT(idle_fast, 0.15);
  EXPECT_GT(idle_slow, 0.60);
}

TEST(UtilTrace, RejectsBadConfig) {
  UtilTraceConfig config;
  config.bandwidth = 0;
  EXPECT_THROW(generate_util_trace(config), std::invalid_argument);
}

TEST(UtilTrace, IdleFractionEdgeCases) {
  EXPECT_DOUBLE_EQ(idle_fraction({}), 0.0);
  EXPECT_DOUBLE_EQ(idle_fraction({{0.0, 0.1}, {1.0, 0.9}}, 0.5), 0.5);
}

}  // namespace
}  // namespace swallow::cpu
