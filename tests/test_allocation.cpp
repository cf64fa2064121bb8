// Rate-solver tests: feasibility, (weighted) max-min fairness against known
// closed forms — including the exact Fig. 4 rate vectors — strict priority,
// MADD and backfill.
#include <gtest/gtest.h>

#include "fabric/allocation.hpp"

namespace swallow::fabric {
namespace {

/// The motivation example's flows over three unit-capacity egress channels
/// (ingress made non-binding), ids 0..4 = f1, f2, f3, f4, f5.
class Fig4Flows : public ::testing::Test {
 protected:
  Fig4Flows() : fabric_({100, 100, 100}, {1, 1, 1}) {
    auto add = [&](FlowId id, PortId src, PortId dst, double bytes) {
      Flow f;
      f.id = id;
      f.src = src;
      f.dst = dst;
      f.raw_remaining = bytes;
      flows_.push_back(f);
    };
    add(0, 0, 0, 4);  // f1
    add(1, 1, 1, 4);  // f2
    add(2, 0, 2, 2);  // f3
    add(3, 2, 1, 2);  // f4
    add(4, 1, 2, 3);  // f5
  }

  std::vector<const Flow*> ptrs() const {
    std::vector<const Flow*> out;
    for (const auto& f : flows_) out.push_back(&f);
    return out;
  }

  Fabric fabric_;
  std::vector<Flow> flows_;
};

TEST(Allocation, StoresRatesAndCompressFlags) {
  Allocation a;
  EXPECT_DOUBLE_EQ(a.rate(42), 0.0);
  EXPECT_FALSE(a.compress(42));
  a.set_rate(42, 7.5);
  a.set_compress_all({0, 1});
  EXPECT_DOUBLE_EQ(a.rate(42), 7.5);
  EXPECT_FALSE(a.compress(0));
  EXPECT_TRUE(a.compress(1));
  EXPECT_FALSE(a.compress(42));  // beyond the table
  EXPECT_THROW(a.set_rate(1, -1.0), std::invalid_argument);
}

TEST_F(Fig4Flows, FeasibilityDetectsOverload) {
  Allocation a;
  for (const auto& f : flows_) a.set_rate(f.id, 0.4);
  EXPECT_TRUE(feasible(a, ptrs(), fabric_));
  a.set_rate(1, 0.7);  // egress 1 now carries 0.7 + 0.4
  EXPECT_FALSE(feasible(a, ptrs(), fabric_));
}

TEST_F(Fig4Flows, MaxMinMatchesClosedForm) {
  // PFF on the example: f1 = 1 (alone on A); B and C split evenly.
  const std::vector<double> unit(5, 1.0);
  const Allocation a = weighted_max_min(ptrs(), unit, fabric_);
  EXPECT_NEAR(a.rate(0), 1.0, 1e-9);
  EXPECT_NEAR(a.rate(1), 0.5, 1e-9);
  EXPECT_NEAR(a.rate(3), 0.5, 1e-9);
  EXPECT_NEAR(a.rate(2), 0.5, 1e-9);
  EXPECT_NEAR(a.rate(4), 0.5, 1e-9);
  EXPECT_TRUE(feasible(a, ptrs(), fabric_));
}

TEST_F(Fig4Flows, WeightedMaxMinMatchesWssClosedForm) {
  // Volume weights: B splits 4:2 -> 2/3, 1/3; C splits 2:3 -> 0.4, 0.6.
  std::vector<double> weights;
  for (const auto& f : flows_) weights.push_back(f.volume());
  const Allocation a = weighted_max_min(ptrs(), weights, fabric_);
  EXPECT_NEAR(a.rate(0), 1.0, 1e-9);
  EXPECT_NEAR(a.rate(1), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(a.rate(3), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(a.rate(2), 0.4, 1e-9);
  EXPECT_NEAR(a.rate(4), 0.6, 1e-9);
}

TEST_F(Fig4Flows, MaxMinIsWorkConservingOnContendedPorts) {
  const std::vector<double> unit(5, 1.0);
  const Allocation a = weighted_max_min(ptrs(), unit, fabric_);
  EXPECT_NEAR(a.rate(1) + a.rate(3), 1.0, 1e-9);  // egress 1 saturated
  EXPECT_NEAR(a.rate(2) + a.rate(4), 1.0, 1e-9);  // egress 2 saturated
}

TEST(MaxMin, RespectsIngressConstraints) {
  // Two flows share one ingress port feeding two different egresses.
  const Fabric fabric({1.0, 1.0}, {10.0, 10.0});
  Flow a, b;
  a.id = 0;
  a.src = 0;
  a.dst = 0;
  a.raw_remaining = 5;
  b.id = 1;
  b.src = 0;
  b.dst = 1;
  b.raw_remaining = 5;
  const std::vector<const Flow*> flows{&a, &b};
  const Allocation alloc = weighted_max_min(flows, {1.0, 1.0}, fabric);
  EXPECT_NEAR(alloc.rate(0), 0.5, 1e-9);
  EXPECT_NEAR(alloc.rate(1), 0.5, 1e-9);
}

TEST(MaxMin, RejectsWeightMismatch) {
  const Fabric fabric(1, 1.0);
  EXPECT_THROW(weighted_max_min({}, {1.0}, fabric), std::invalid_argument);
}

TEST_F(Fig4Flows, StrictPriorityGivesHeadFullRate) {
  // Order f4 before f2 on egress 1: f4 gets 1, f2 gets 0.
  const auto all = ptrs();
  const std::vector<const Flow*> order{all[3], all[1], all[0], all[2],
                                       all[4]};
  const Allocation a = strict_priority(order, fabric_);
  EXPECT_NEAR(a.rate(3), 1.0, 1e-9);
  EXPECT_NEAR(a.rate(1), 0.0, 1e-9);
  EXPECT_NEAR(a.rate(0), 1.0, 1e-9);  // A uncontended
  EXPECT_NEAR(a.rate(2), 1.0, 1e-9);  // C head
  EXPECT_NEAR(a.rate(4), 0.0, 1e-9);
  EXPECT_TRUE(feasible(a, ptrs(), fabric_));
}

TEST_F(Fig4Flows, MaddFinishesAllFlowsTogether) {
  Allocation a;
  PortHeadroom headroom(fabric_);
  const auto all = ptrs();
  // C2 = {f4 (2 bytes), f5 (3 bytes)}, gamma = 3.
  madd_into(a, {all[3], all[4]}, 3.0, headroom);
  EXPECT_NEAR(a.rate(3), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(a.rate(4), 1.0, 1e-9);
  // Headroom consumed on the right ports.
  EXPECT_NEAR(headroom.egress(1), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(headroom.egress(2), 0.0, 1e-9);
}

TEST_F(Fig4Flows, MaddClampsToHeadroom) {
  Allocation a;
  PortHeadroom headroom(fabric_);
  const auto all = ptrs();
  madd_into(a, {all[4]}, 3.0, headroom);  // f5 takes all of egress 2
  madd_into(a, {all[2]}, 1.0, headroom);  // f3 wants 2/1 = 2, gets 0
  EXPECT_NEAR(a.rate(2), 0.0, 1e-9);
  EXPECT_THROW(madd_into(a, {all[0]}, 0.0, headroom), std::invalid_argument);
}

TEST_F(Fig4Flows, BackfillSaturatesResidualCapacity) {
  Allocation a;
  PortHeadroom headroom(fabric_);
  const auto all = ptrs();
  madd_into(a, {all[3], all[4]}, 3.0, headroom);
  backfill_into(a, all, headroom);
  // Egress 1 residual 1/3 goes to f2 (first in order with headroom).
  EXPECT_NEAR(a.rate(1), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(a.rate(0), 1.0, 1e-9);
  EXPECT_TRUE(feasible(a, ptrs(), fabric_));
}

TEST(PortHeadroom, AvailableIsMinOfBothPorts) {
  const Fabric fabric({4.0, 8.0}, {6.0, 2.0});
  PortHeadroom headroom(fabric);
  Flow f;
  f.src = 1;
  f.dst = 1;
  EXPECT_DOUBLE_EQ(headroom.available(f), 2.0);
  headroom.consume(f, 2.0);
  EXPECT_DOUBLE_EQ(headroom.available(f), 0.0);
  EXPECT_DOUBLE_EQ(headroom.ingress(1), 6.0);
}

TEST(MaxMin, ManyFlowsOnePortEqualShares) {
  const Fabric fabric(2, 12.0);
  std::vector<Flow> flows(6);
  std::vector<const Flow*> ptrs;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    flows[i].id = i;
    flows[i].src = 0;
    flows[i].dst = 1;
    flows[i].raw_remaining = 10;
    ptrs.push_back(&flows[i]);
  }
  const Allocation a =
      weighted_max_min(ptrs, std::vector<double>(6, 1.0), fabric);
  for (const auto* f : ptrs) EXPECT_NEAR(a.rate(f->id), 2.0, 1e-9);
}

}  // namespace
}  // namespace swallow::fabric
