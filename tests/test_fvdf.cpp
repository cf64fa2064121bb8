// FVDF core tests: the volume-disposal equations (1-3), expected FCT
// (Eq. 7), TimeCalculation/Gamma_C (Eq. 8, read back from the scheduler's
// coflow_estimate trace events), the compression-strategy truth table
// (Pseudocode 1), priority upgrade (Pseudocode 3) and the full allocation
// (Pseudocode 2).
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <string>

#include "core/compression_strategy.hpp"
#include "core/fvdf.hpp"
#include "core/online.hpp"
#include "cpu/cpu_model.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "sim/experiment.hpp"

namespace swallow::core {
namespace {

using common::gbps;
using common::mbps;
using sim::make_scheduler;

const codec::CodecModel kUnitCodec{"unit", 4.0, 16.0, 0.5};

fabric::Flow make_flow(fabric::FlowId id, fabric::CoflowId cid, double bytes,
                       fabric::PortId src = 0, fabric::PortId dst = 0) {
  fabric::Flow f;
  f.id = id;
  f.coflow = cid;
  f.src = src;
  f.dst = dst;
  f.raw_remaining = bytes;
  f.original_bytes = bytes;
  return f;
}

TEST(VolumeDisposal, DeltaCFollowsEq1) {
  EXPECT_DOUBLE_EQ(delta_c(kUnitCodec, 0.5, 1.0), 4.0 * 0.5 * 0.5);
  EXPECT_DOUBLE_EQ(delta_c(kUnitCodec, 0.5, 0.5), 2.0 * 0.5 * 0.5);
}

TEST(VolumeDisposal, DeltaTFollowsEq2) {
  EXPECT_DOUBLE_EQ(delta_t(1.0, 0.25), 0.25);
  EXPECT_DOUBLE_EQ(delta_t(125.0, 0.01), 1.25);
}

TEST(ExpectedFct, FollowsEq7WithoutCompression) {
  const fabric::Flow f = make_flow(0, 0, 10.0);
  // Gamma_F = delta + (V - B*delta)/B = V/B.
  EXPECT_DOUBLE_EQ(expected_fct(f, false, kUnitCodec, 1.0, 2.0, 0.1), 5.0);
}

TEST(ExpectedFct, FollowsEq7WithCompression) {
  const fabric::Flow f = make_flow(0, 0, 10.0);
  // Delta_c = 4 * 0.1 * 0.5 = 0.2; Gamma_F = 0.1 + (10 - 0.2)/2 = 5.0.
  EXPECT_DOUBLE_EQ(expected_fct(f, true, kUnitCodec, 1.0, 2.0, 0.1), 5.0);
  // With a bigger slice the compression term matters: delta = 1 ->
  // Delta_c = 2; Gamma_F = 1 + 8/2 = 5; without compression 1 + 8/2 = 5
  // with Delta_t = 2: identical here because R(1-xi) == B.
  const codec::CodecModel faster{"fast", 8.0, 32.0, 0.5};
  // Delta_c = 8*1*0.5 = 4 -> Gamma = 1 + 6/2 = 4 < 5.
  EXPECT_DOUBLE_EQ(expected_fct(f, true, faster, 1.0, 2.0, 1.0), 4.0);
}

TEST(ExpectedFct, ClampsDisposalToVolume) {
  const fabric::Flow f = make_flow(0, 0, 0.1);
  // Disposal exceeds the volume: remaining term is zero, only the slice.
  EXPECT_DOUBLE_EQ(expected_fct(f, false, kUnitCodec, 1.0, 10.0, 1.0), 1.0);
  EXPECT_THROW(expected_fct(f, false, kUnitCodec, 1.0, 0.0, 1.0),
               std::invalid_argument);
}

// ---- Pseudocode 1: compression strategy. ----

class StrategyTest : public ::testing::Test {
 protected:
  StrategyTest() : fabric_(2, 1.0), idle_(1.0), busy_(0.0) {}
  fabric::Fabric fabric_;
  cpu::ConstantCpu idle_;
  cpu::ConstantCpu busy_;
};

TEST_F(StrategyTest, EnablesWhenAllConditionsHold) {
  const fabric::Flow f = make_flow(0, 0, 10.0, 0, 1);
  const auto d = compression_strategy(f, kUnitCodec, idle_, fabric_, 0.0);
  // R(1 - xi) = 2 > B = 1.
  EXPECT_TRUE(d.enabled);
  EXPECT_DOUBLE_EQ(d.bandwidth, 1.0);
  EXPECT_DOUBLE_EQ(d.cpu_headroom, 1.0);
}

TEST_F(StrategyTest, DisabledForIncompressiblePayload) {
  fabric::Flow f = make_flow(0, 0, 10.0);
  f.compressible = false;
  EXPECT_FALSE(compression_strategy(f, kUnitCodec, idle_, fabric_, 0).enabled);
}

TEST_F(StrategyTest, DisabledWhenNoRawBytesLeft) {
  fabric::Flow f = make_flow(0, 0, 10.0);
  f.raw_remaining = 0;
  f.compressed_pending = 10.0;
  EXPECT_FALSE(compression_strategy(f, kUnitCodec, idle_, fabric_, 0).enabled);
}

TEST_F(StrategyTest, DisabledWhenCpuBusy) {
  const fabric::Flow f = make_flow(0, 0, 10.0);
  EXPECT_FALSE(compression_strategy(f, kUnitCodec, busy_, fabric_, 0).enabled);
}

TEST_F(StrategyTest, DisabledWhenEq3Fails) {
  const fabric::Flow f = make_flow(0, 0, 10.0);
  const codec::CodecModel slow{"slow", 1.5, 6.0, 0.5};  // R(1-xi)=0.75 < 1
  EXPECT_FALSE(compression_strategy(f, slow, idle_, fabric_, 0).enabled);
}

TEST(Strategy, Lz4GateMatchesPaperBandwidthStory) {
  // LZ4 from Table II: compression on at 100 Mbps and 1 Gbps, off at
  // 10 Gbps (Section VI-B2 of the paper).
  const cpu::ConstantCpu idle(1.0);
  const fabric::Flow f = make_flow(0, 0, 1e9, 0, 1);
  for (const auto& [bw, expect] :
       std::vector<std::pair<common::Bps, bool>>{
           {mbps(100), true}, {gbps(1), true}, {gbps(10), false}}) {
    const fabric::Fabric fabric(2, bw);
    const auto d = compression_strategy(f, codec::default_codec_model(),
                                        idle, fabric, 0.0);
    EXPECT_EQ(d.enabled, expect) << bw;
  }
}

TEST(FlowBottleneck, IsMinOfPortCapacities) {
  const fabric::Fabric fabric({4.0, 8.0}, {6.0, 2.0});
  fabric::Flow f = make_flow(0, 0, 1.0, 0, 1);
  EXPECT_DOUBLE_EQ(flow_bottleneck(f, fabric), 2.0);
  f.dst = 0;
  EXPECT_DOUBLE_EQ(flow_bottleneck(f, fabric), 4.0);
}

// ---- TimeCalculation + allocation. ----

class FvdfContext : public ::testing::Test {
 protected:
  FvdfContext()
      : fabric_(std::vector<common::Bps>(3, 100.0),
                std::vector<common::Bps>(3, 1.0)),
        cpu_(1.0) {
    flows_.push_back(make_flow(0, 1, 4.0, 0, 0));
    flows_.push_back(make_flow(1, 1, 4.0, 1, 1));
    flows_.push_back(make_flow(2, 1, 2.0, 0, 2));
    flows_.push_back(make_flow(3, 2, 2.0, 2, 1));
    flows_.push_back(make_flow(4, 2, 3.0, 1, 2));
    c1_.id = 1;
    c1_.flows = {0, 1, 2};
    c2_.id = 2;
    c2_.flows = {3, 4};
  }

  sched::SchedContext context(const codec::CodecModel* codec) {
    sched::SchedContext ctx;
    ctx.fabric = &fabric_;
    ctx.cpu = &cpu_;
    ctx.slice = 0.01;
    for (auto& f : flows_) ctx.flows.push_back(&f);
    ctx.coflows = {&c1_, &c2_};
    ctx.codec = codec;
    return ctx;
  }

  fabric::Fabric fabric_;
  cpu::ConstantCpu cpu_;
  std::vector<fabric::Flow> flows_;
  fabric::Coflow c1_, c2_;
};

// One scheduling round of `variant` with a Tracer attached; the
// coflow_estimate events it exports carry each coflow's Γ_C and rank key.
struct TracedRound {
  fabric::Allocation alloc;
  std::map<fabric::CoflowId, double> gamma;
  std::map<fabric::CoflowId, double> key;
  std::size_t betas = 0;  ///< beta_decision events with beta = true
};

TracedRound traced_round(sched::SchedContext ctx, const char* variant) {
  obs::Tracer tracer;
  ctx.sink = &tracer;
  TracedRound out;
  out.alloc = make_scheduler(variant)->schedule(ctx);
  std::ostringstream jsonl;
  tracer.write_jsonl(jsonl);
  std::istringstream lines(jsonl.str());
  for (std::string line; std::getline(lines, line);) {
    const obs::JsonValue ev = obs::parse_json(line);
    const std::string& name = ev.find("name")->string;
    const obs::JsonValue* args = ev.find("args");
    if (name == "coflow_estimate") {
      const auto id =
          static_cast<fabric::CoflowId>(args->find("coflow")->number);
      out.gamma[id] = args->find("gamma")->number;
      out.key[id] = args->find("key")->number;
    } else if (name == "beta_decision" && args->find("beta")->boolean) {
      ++out.betas;
    }
  }
  return out;
}

TEST_F(FvdfContext, EstimatesGammaPerCoflow) {
  const TracedRound r = traced_round(context(nullptr), "FVDF");
  ASSERT_EQ(r.gamma.size(), 2u);
  // Without compression Gamma_C = max flow volume / B (up to the slice
  // term which cancels): C1 -> 4, C2 -> 3.
  EXPECT_NEAR(r.gamma.at(1), 4.0, 0.02);
  EXPECT_NEAR(r.gamma.at(2), 3.0, 0.02);
  EXPECT_EQ(r.betas, 0u);
}

TEST_F(FvdfContext, EstimatesEnableCompression) {
  const TracedRound r = traced_round(context(&kUnitCodec), "FVDF");
  EXPECT_EQ(r.betas, flows_.size());  // beta set on every flow
  // Gamma shrinks: compressed volume ~ half.
  EXPECT_LT(r.gamma.at(1), 4.0);
}

TEST_F(FvdfContext, OnlineKeyDividesGammaByPriority) {
  c1_.priority = 10.0;
  const TracedRound r = traced_round(context(nullptr), "FVDF");
  EXPECT_NEAR(r.key.at(1), r.gamma.at(1) / 10.0, 1e-9);
  EXPECT_NEAR(r.key.at(2), r.gamma.at(2), 1e-9);
}

TEST_F(FvdfContext, AllocateServesShortestGammaFirst) {
  auto ctx = context(nullptr);
  const fabric::Allocation a = traced_round(ctx, "FVDF").alloc;
  // C2 (Gamma 3) first: its flows get their volume/Gamma rates; port B
  // leftover backfills f1.
  EXPECT_GT(a.rate(3), 0.5);
  EXPECT_NEAR(a.rate(4), 1.0, 1e-6);
  EXPECT_TRUE(feasible(a, ctx.flows, fabric_));
}

TEST_F(FvdfContext, AllocateGivesCompressingFlowsZeroRate) {
  auto ctx = context(&kUnitCodec);
  const fabric::Allocation a = traced_round(ctx, "FVDF").alloc;
  for (const auto* f : ctx.flows) {
    EXPECT_TRUE(a.compress(f->id));
    EXPECT_DOUBLE_EQ(a.rate(f->id), 0.0);
  }
}

TEST_F(FvdfContext, PriorityInversionFlipsServiceOrder) {
  // Give C1 (the larger coflow) a huge priority class: it must now be
  // served ahead of C2 on the contended ports.
  c1_.priority = 100.0;
  const fabric::Allocation a = traced_round(context(nullptr), "FVDF").alloc;
  EXPECT_NEAR(a.rate(1), 1.0, 1e-6);  // f1 beats f3 on port B
}

// One full round in which nobody is served: every coflow of the context
// waits, so the next coflow-event round ages all of them.
void unserved_round(PriorityUpgrade& upgrade, const sched::SchedContext& ctx) {
  upgrade.begin_round(ctx, /*enabled=*/true);
  upgrade.end_round(ctx, fabric::Allocation{});
}

TEST(Upgrade, MultipliesEveryWaitingPriorityByLogBase) {
  fabric::Coflow a, b;
  a.id = 0;
  b.id = 1;
  a.priority = 1.0;
  b.priority = 2.0;
  sched::SchedContext ctx;
  ctx.coflows = {&a, &b};
  PriorityUpgrade upgrade("fvdf", "fvdf.priority_upgrades");
  unserved_round(upgrade, ctx);  // round 1: nobody has waited yet
  EXPECT_DOUBLE_EQ(a.priority, 1.0);
  unserved_round(upgrade, ctx);
  EXPECT_DOUBLE_EQ(a.priority, 1.2);
  EXPECT_DOUBLE_EQ(b.priority, 2.4);
  unserved_round(upgrade, ctx);
  EXPECT_DOUBLE_EQ(a.priority, 1.44);
}

TEST(Upgrade, ClampsBelowOneBeforeMultiplying) {
  fabric::Coflow c;
  c.priority = 0.25;
  sched::SchedContext ctx;
  ctx.coflows = {&c};
  PriorityUpgrade upgrade("fvdf", "fvdf.priority_upgrades");
  unserved_round(upgrade, ctx);
  unserved_round(upgrade, ctx);
  EXPECT_DOUBLE_EQ(c.priority, kPriorityLogBase);
}

TEST(Upgrade, GrowsExponentially) {
  fabric::Coflow c;
  sched::SchedContext ctx;
  ctx.coflows = {&c};
  PriorityUpgrade upgrade("fvdf", "fvdf.priority_upgrades");
  for (int i = 0; i < 51; ++i) unserved_round(upgrade, ctx);
  EXPECT_NEAR(c.priority, std::pow(1.2, 50), 1e-3);
}

TEST(Upgrade, OnlyCoflowEventsAge) {
  fabric::Coflow c;
  sched::SchedContext ctx;
  ctx.coflows = {&c};
  ctx.coflow_event = false;
  PriorityUpgrade upgrade("fvdf", "fvdf.priority_upgrades");
  for (int i = 0; i < 5; ++i) unserved_round(upgrade, ctx);
  EXPECT_DOUBLE_EQ(c.priority, 1.0);
  EXPECT_EQ(upgrade.round(), 5u);
}

TEST_F(FvdfContext, OnlyDeadlineFvdfReadsDeadlinesAndSloClasses) {
  // A coflow admission degraded keeps compressing under the plain
  // variants, and a deadline moves nothing; DEADLINE-FVDF forces the
  // degraded coflow's β to 0.
  const auto ctx = context(&kUnitCodec);
  for (std::size_t v = 0; v < kFvdfVariantCount; ++v) {
    const auto variant = static_cast<FvdfVariant>(v);
    SCOPED_TRACE(FvdfScheduler(variant).name());
    c1_.slo = fabric::SloClass::kBestEffort;
    c2_.deadline = fabric::kNoDeadline;
    const fabric::Allocation blind = FvdfScheduler(variant).schedule(ctx);
    c1_.slo = fabric::SloClass::kDegraded;
    c2_.deadline = 0.5;
    const fabric::Allocation slo = FvdfScheduler(variant).schedule(ctx);
    const bool deadline_aware = variant == FvdfVariant::kDeadline;
    for (const fabric::FlowId fid : c1_.flows)
      EXPECT_EQ(slo.compress(fid), !deadline_aware && blind.compress(fid));
    if (deadline_aware) continue;
    for (const fabric::Flow* f : ctx.flows) {
      EXPECT_EQ(slo.rate(f->id), blind.rate(f->id));
      EXPECT_EQ(slo.compress(f->id), blind.compress(f->id));
    }
  }
}

TEST_F(FvdfContext, ServedCoflowsDoNotAge) {
  // Every coflow in the fixture gets some rate (backfill), so priority
  // classes stay flat no matter how many events fire.
  auto sched = make_scheduler("FVDF");
  auto ctx = context(nullptr);
  sched->schedule(ctx);
  sched->schedule(ctx);
  EXPECT_DOUBLE_EQ(c1_.priority, 1.0);
  EXPECT_DOUBLE_EQ(c2_.priority, 1.0);
}

TEST(FvdfScheduler, BlockedCoflowAgesUntilServed) {
  // Two coflows on the same port: the smaller one wins the port, the
  // larger one is starved and must age by logbase per coflow event.
  const fabric::Fabric fabric(2, 1.0);
  const cpu::ConstantCpu cpu(0.0);
  fabric::Flow small = make_flow(0, 1, 1.0, 0, 1);
  fabric::Flow big = make_flow(1, 2, 100.0, 0, 1);
  fabric::Coflow c_small, c_big;
  c_small.id = 1;
  c_small.flows = {0};
  c_big.id = 2;
  c_big.flows = {1};
  sched::SchedContext ctx;
  ctx.fabric = &fabric;
  ctx.cpu = &cpu;
  ctx.flows = {&small, &big};
  ctx.coflows = {&c_small, &c_big};

  auto sched = make_scheduler("FVDF");
  sched->schedule(ctx);  // big gets rate 0, recorded as starved
  EXPECT_DOUBLE_EQ(c_big.priority, 1.0);
  sched->schedule(ctx);
  EXPECT_DOUBLE_EQ(c_big.priority, kPriorityLogBase);
  EXPECT_DOUBLE_EQ(c_small.priority, 1.0);
  sched->schedule(ctx);
  EXPECT_DOUBLE_EQ(c_big.priority, kPriorityLogBase * kPriorityLogBase);

  // Non-coflow events (flow completions, compression finished) never age.
  ctx.coflow_event = false;
  sched->schedule(ctx);
  EXPECT_DOUBLE_EQ(c_big.priority, kPriorityLogBase * kPriorityLogBase);

  // The no-upgrade ablation never ages.
  auto no_upgrade = make_scheduler("FVDF-NOUPGRADE");
  ctx.coflow_event = true;
  no_upgrade->schedule(ctx);
  no_upgrade->schedule(ctx);
  EXPECT_DOUBLE_EQ(c_big.priority, kPriorityLogBase * kPriorityLogBase);
}

TEST_F(FvdfContext, NcVariantIgnoresCodec) {
  auto sched = make_scheduler("FVDF-NC");
  auto ctx = context(&kUnitCodec);
  const fabric::Allocation a = sched->schedule(ctx);
  for (const auto* f : ctx.flows) EXPECT_FALSE(a.compress(f->id));
}

}  // namespace
}  // namespace swallow::core
