// Fabric and coflow-state tests: the big-switch model, flow volume
// bookkeeping, and Varys' effective bottleneck kernel.
#include <gtest/gtest.h>

#include <limits>

#include "fabric/coflow.hpp"
#include "fabric/fabric.hpp"

namespace swallow::fabric {
namespace {

TEST(Fabric, UniformConstruction) {
  const Fabric f(4, 100.0);
  EXPECT_EQ(f.num_ports(), 4u);
  for (PortId p = 0; p < 4; ++p) {
    EXPECT_DOUBLE_EQ(f.ingress_capacity(p), 100.0);
    EXPECT_DOUBLE_EQ(f.egress_capacity(p), 100.0);
  }
}

TEST(Fabric, HeterogeneousConstruction) {
  const Fabric f({10.0, 20.0}, {30.0, 5.0});
  EXPECT_DOUBLE_EQ(f.ingress_capacity(1), 20.0);
  EXPECT_DOUBLE_EQ(f.egress_capacity(1), 5.0);
}

TEST(Fabric, RejectsInvalidConfigs) {
  EXPECT_THROW(Fabric(0, 1.0), std::invalid_argument);
  EXPECT_THROW(Fabric(3, 0.0), std::invalid_argument);
  using Caps = std::vector<common::Bps>;
  EXPECT_THROW(Fabric(Caps{1.0}, Caps{1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(Fabric(Caps{0.0}, Caps{1.0}), std::invalid_argument);
  EXPECT_THROW(Fabric(Caps{}, Caps{}), std::invalid_argument);
}

TEST(Fabric, RejectsNonFiniteCapacities) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(Fabric(2, nan), std::invalid_argument);
  EXPECT_THROW(Fabric(2, inf), std::invalid_argument);
  EXPECT_THROW(Fabric(2, -5.0), std::invalid_argument);
  using Caps = std::vector<common::Bps>;
  EXPECT_THROW(Fabric(Caps{1.0, nan}, Caps{1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Fabric(Caps{1.0, 1.0}, Caps{inf, 1.0}), std::invalid_argument);
  EXPECT_THROW(Fabric(Caps{1.0, -1.0}, Caps{1.0, 1.0}),
               std::invalid_argument);
}

TEST(Fabric, PortMultiplierScalesCurrentNotNominal) {
  Fabric f({10.0, 20.0}, {30.0, 5.0});
  EXPECT_FALSE(f.degraded());
  f.set_port_multiplier(1, 0.5);
  EXPECT_TRUE(f.degraded());
  EXPECT_DOUBLE_EQ(f.ingress_capacity(1), 10.0);
  EXPECT_DOUBLE_EQ(f.egress_capacity(1), 2.5);
  EXPECT_DOUBLE_EQ(f.nominal_ingress_capacity(1), 20.0);
  EXPECT_DOUBLE_EQ(f.nominal_egress_capacity(1), 5.0);
  EXPECT_DOUBLE_EQ(f.port_multiplier(1), 0.5);
  EXPECT_DOUBLE_EQ(f.ingress_capacity(0), 10.0);  // port 0 untouched

  f.set_port_multiplier(1, 0.0);  // full link failure
  EXPECT_DOUBLE_EQ(f.ingress_capacity(1), 0.0);
  f.set_port_multiplier(1, 1.0);
  EXPECT_FALSE(f.degraded());
  EXPECT_DOUBLE_EQ(f.ingress_capacity(1), 20.0);
}

TEST(Fabric, RejectsInvalidMultipliers) {
  Fabric f(2, 10.0);
  EXPECT_THROW(f.set_port_multiplier(0, -0.1), std::invalid_argument);
  EXPECT_THROW(f.set_port_multiplier(0, 1.5), std::invalid_argument);
  EXPECT_THROW(
      f.set_port_multiplier(0, std::numeric_limits<double>::quiet_NaN()),
      std::invalid_argument);
  EXPECT_THROW(f.set_port_multiplier(5, 0.5), std::out_of_range);
  EXPECT_DOUBLE_EQ(f.ingress_capacity(0), 10.0);  // state unchanged
}

TEST(Flow, VolumeIsRawPlusCompressed) {
  Flow f;
  f.raw_remaining = 70;
  f.compressed_pending = 30;
  EXPECT_DOUBLE_EQ(f.volume(), 100.0);
  EXPECT_FALSE(f.done());
  f.raw_remaining = 0;
  f.compressed_pending = 0;
  EXPECT_TRUE(f.done());
  EXPECT_FALSE(f.completed());
  f.completion = 5.0;
  EXPECT_TRUE(f.completed());
}

/// A coflow of three flows. Flow 1 is finished, so only flows 0 and 2, both
/// from ingress 0, are handed to the kernel, as SEBF and the engine do.
class Bottleneck : public ::testing::Test {
 protected:
  void SetUp() override {
    flows_[0].src = 0;
    flows_[0].dst = 1;
    flows_[0].raw_remaining = 100;
    flows_[1].src = 1;
    flows_[1].dst = 1;
    flows_[1].raw_remaining = 0;  // done
    flows_[2].src = 0;
    flows_[2].dst = 2;
    flows_[2].raw_remaining = 40;
    flows_[2].compressed_pending = 10;
  }
  common::Seconds gamma(const Fabric& fabric) {
    std::vector<common::Bytes> in_load(fabric.num_ports());
    std::vector<common::Bytes> out_load(fabric.num_ports());
    return coflow_bottleneck_time({&flows_[0], &flows_[2]}, fabric, in_load,
                                  out_load);
  }
  Flow flows_[3];
};

TEST_F(Bottleneck, IsWorstPort) {
  // Ingress 0 carries flows 0 and 2: 150 bytes; egress 1 carries 100;
  // egress 2 carries 50. At capacity 10 the bottleneck is 150/10.
  EXPECT_DOUBLE_EQ(gamma(Fabric(3, 10.0)), 15.0);
}

TEST_F(Bottleneck, HonoursHeterogeneousCapacity) {
  // Make egress 2 tiny: flow 2's 50 bytes over 0.5 dominates.
  EXPECT_DOUBLE_EQ(gamma(Fabric({10.0, 10.0, 10.0}, {10.0, 10.0, 0.5})),
                   100.0);
}

TEST_F(Bottleneck, SkipsFailedPorts) {
  // Egress 2 failed: its 50 bytes cannot move, so the bound is set by the
  // live ports (ingress 0's 150 bytes at 10).
  Fabric fabric({10.0, 10.0, 10.0}, {10.0, 10.0, 0.5});
  fabric.set_port_multiplier(2, 0.0);
  EXPECT_DOUBLE_EQ(gamma(fabric), 15.0);
}

TEST(Coflow, PriorityDefaultsToOne) {
  const Coflow c;
  EXPECT_DOUBLE_EQ(c.priority, 1.0);
  EXPECT_FALSE(c.completed());
}

}  // namespace
}  // namespace swallow::fabric
