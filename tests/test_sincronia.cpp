// Sincronia/BSSI tests: the primal-dual ordering on hand-computable
// instances, its 2-approximation flavour (never catastrophically worse
// than SEBF), and end-to-end simulation behaviour.
#include <gtest/gtest.h>

#include "cpu/cpu_model.hpp"
#include "sched/baselines.hpp"
#include "sim/experiment.hpp"

namespace swallow::sched {
namespace {

fabric::Flow make_flow(fabric::FlowId id, fabric::CoflowId cid,
                       fabric::PortId src, fabric::PortId dst, double bytes) {
  fabric::Flow f;
  f.id = id;
  f.coflow = cid;
  f.src = src;
  f.dst = dst;
  f.raw_remaining = bytes;
  f.original_bytes = bytes;
  return f;
}

TEST(SincroniaOrder, SingleBottleneckOrdersBySize) {
  // Three coflows sharing one egress port with unit weights: the
  // primal-dual reduces to smallest-first (classic SRPT on one machine).
  fabric::Fabric fabric(2, 1.0);
  cpu::ConstantCpu cpu(0.0);
  std::vector<fabric::Flow> flows{make_flow(0, 10, 0, 1, 5.0),
                                  make_flow(1, 11, 0, 1, 1.0),
                                  make_flow(2, 12, 0, 1, 3.0)};
  fabric::Coflow c10, c11, c12;
  c10.id = 10;
  c10.flows = {0};
  c11.id = 11;
  c11.flows = {1};
  c12.id = 12;
  c12.flows = {2};
  SchedContext ctx;
  ctx.fabric = &fabric;
  ctx.cpu = &cpu;
  for (auto& f : flows) ctx.flows.push_back(&f);
  ctx.coflows = {&c10, &c11, &c12};

  const auto order = bssi_order(ctx);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 11u);  // 1 byte
  EXPECT_EQ(order[1], 12u);  // 3 bytes
  EXPECT_EQ(order[2], 10u);  // 5 bytes
}

TEST(SincroniaOrder, AccountsForBothPortDirections) {
  // C1 looks small by total bytes but hammers one ingress port; C2 spreads
  // the same volume. The bottleneck-first rule must consider per-port load.
  fabric::Fabric fabric(4, 1.0);
  cpu::ConstantCpu cpu(0.0);
  std::vector<fabric::Flow> flows{
      make_flow(0, 1, 0, 1, 4.0), make_flow(1, 1, 0, 2, 4.0),  // C1: 8 on in0
      make_flow(2, 2, 1, 3, 3.0), make_flow(3, 2, 2, 3, 3.0),  // C2: 6 on out3
  };
  fabric::Coflow c1, c2;
  c1.id = 1;
  c1.flows = {0, 1};
  c2.id = 2;
  c2.flows = {2, 3};
  SchedContext ctx;
  ctx.fabric = &fabric;
  ctx.cpu = &cpu;
  for (auto& f : flows) ctx.flows.push_back(&f);
  ctx.coflows = {&c1, &c2};

  // Bottleneck is ingress 0 (8 bytes, all C1): C1 is placed last there.
  const auto order = bssi_order(ctx);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 2u);
  EXPECT_EQ(order[1], 1u);
}

TEST(SincroniaOrder, HandlesEmptyAndSingle) {
  fabric::Fabric fabric(2, 1.0);
  cpu::ConstantCpu cpu(0.0);
  SchedContext ctx;
  ctx.fabric = &fabric;
  ctx.cpu = &cpu;
  EXPECT_TRUE(bssi_order(ctx).empty());

  std::vector<fabric::Flow> flows{make_flow(0, 7, 0, 1, 2.0)};
  fabric::Coflow c;
  c.id = 7;
  c.flows = {0};
  ctx.flows = {&flows[0]};
  ctx.coflows = {&c};
  const auto order = bssi_order(ctx);
  ASSERT_EQ(order.size(), 1u);
  EXPECT_EQ(order[0], 7u);
}

TEST(SincroniaSim, CompetitiveWithSebfOnCct) {
  workload::GeneratorConfig gen;
  gen.num_ports = 10;
  gen.num_coflows = 30;
  gen.size_lo = 1e5;
  gen.size_hi = 1e9;
  gen.size_alpha = 0.15;
  gen.width_hi = 5;
  gen.seed = 19;
  const workload::Trace trace = workload::generate_trace(gen);
  const fabric::Fabric fabric(10, common::mbps(100));
  const cpu::ConstantCpu cpu(0.0);

  auto run = [&](const char* name) {
    auto sched = sim::make_scheduler(name);
    return sim::run_simulation(trace, fabric, cpu, *sched, {});
  };
  const double sincronia = run("SINCRONIA").avg_cct();
  const double sebf = run("SEBF").avg_cct();
  const double fifo = run("FIFO").avg_cct();
  // The ordering guarantee is about total CCT; empirically it tracks SEBF
  // closely and dominates FIFO.
  EXPECT_LT(sincronia, fifo);
  EXPECT_LT(sincronia, sebf * 1.5);
  EXPECT_GT(sincronia, sebf * 0.5);
}

}  // namespace
}  // namespace swallow::sched
