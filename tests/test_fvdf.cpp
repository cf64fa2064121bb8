// FVDF core tests: the per-flow kernel evaluate_flow — Pseudocode 1's
// compression gate, the bottleneck B, volume disposal (Eqs. 1-3) and
// expected FCT (Eq. 7), each checked against values derived by hand —
// TimeCalculation/Gamma_C (Eq. 8, read back from the scheduler's
// coflow_estimate trace events), priority upgrade (Pseudocode 3) and the
// full allocation (Pseudocode 2).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "core/fvdf.hpp"
#include "core/online.hpp"
#include "cpu/cpu_model.hpp"
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

// ---- Eq. 3: the one compression-versus-bandwidth test. ----

TEST(BeatsBandwidth, IsStrictEq3) {
  // R·h = 4, ξ = 0.5: a compression slice disposes 2 per second.
  EXPECT_TRUE(beats_bandwidth(4.0, 0.5, 1.9));
  EXPECT_FALSE(beats_bandwidth(4.0, 0.5, 2.0));  // a tie transmits
  EXPECT_FALSE(beats_bandwidth(4.0, 1.0, 0.0));  // ξ = 1 saves nothing
}

TEST(BeatsBandwidth, AllTable2CodecsWinAtMegabit) {
  for (const auto& m : codec::table2_codecs())
    EXPECT_TRUE(beats_bandwidth(m.compress_speed, m.ratio, mbps(100)))
        << m.name;
}

// ---- evaluate_flow: Pseudocode 1 and Eqs. 1, 2, 7 by hand. ----

class EvaluateFlow : public ::testing::Test {
 protected:
  EvalEnv env(const fabric::Fabric& fabric, const cpu::CpuProvider& cpu,
              const codec::CodecModel* codec, common::Seconds slice) {
    return EvalEnv{&fabric, &cpu, codec, 0.0, slice};
  }
  const cpu::ConstantCpu idle_{1.0};
  const cpu::ConstantCpu busy_{0.0};
};

TEST_F(EvaluateFlow, TransmitsOverEq2WithoutACodec) {
  // B = 2, δ = 0.1, V = 10: Γ = δ + (V - B·δ)/B = 0.1 + 9.8/2 = 5 = V/B.
  const fabric::Fabric fabric(2, 2.0);
  const FlowEval ev = evaluate_flow(env(fabric, idle_, nullptr, 0.1),
                                    make_flow(0, 0, 10.0, 0, 1), false);
  EXPECT_FALSE(ev.beta);
  EXPECT_DOUBLE_EQ(ev.fct, 5.0);
}

TEST_F(EvaluateFlow, CompressesOverEq1WhenEq3Holds) {
  // R·h·(1-ξ) = 4·1·0.5 = 2 > B = 1, so β = 1. δ = 1: Δc = 4·1·1·0.5 = 2,
  // Γ = 1 + (10 - 2)/1 = 9 (transmitting would give 1 + 9/1 = 10).
  const fabric::Fabric fabric(2, 1.0);
  const FlowEval ev = evaluate_flow(env(fabric, idle_, &kUnitCodec, 1.0),
                                    make_flow(0, 0, 10.0, 0, 1), false);
  EXPECT_TRUE(ev.beta);
  EXPECT_DOUBLE_EQ(ev.fct, 9.0);
}

TEST_F(EvaluateFlow, HeadroomScalesTheCompressor) {
  // h = 0.5: R·h = 2, and 2·0.5 = 1 > B = 0.5, so β = 1. δ = 1:
  // Δc = 2·1·0.5 = 1, Γ = 1 + (10 - 1)/0.5 = 19.
  const fabric::Fabric fabric(2, 0.5);
  const cpu::ConstantCpu half(0.5);
  const FlowEval ev = evaluate_flow(env(fabric, half, &kUnitCodec, 1.0),
                                    make_flow(0, 0, 10.0, 0, 1), false);
  EXPECT_TRUE(ev.beta);
  EXPECT_DOUBLE_EQ(ev.fct, 19.0);
  // A headroom above 1 counts as 1: Δc = 4·1·0.5 = 2, Γ = 1 + 8/0.5 = 17.
  const cpu::WindowedCpu over({{0.0, 100.0}}, /*idle_headroom=*/2.0);
  EXPECT_DOUBLE_EQ(evaluate_flow(env(fabric, over, &kUnitCodec, 1.0),
                                 make_flow(0, 0, 10.0, 0, 1), false)
                       .fct,
                   17.0);
}

TEST_F(EvaluateFlow, FlowRatioDrivesEq1AndEq3) {
  // The flow compresses to 75%: R·(1-ξ) = 4·0.25 = 1 > B = 0.5, β = 1;
  // δ = 1: Δc = 4·1·0.25 = 1, Γ = 1 + (10 - 1)/0.5 = 19.
  const fabric::Fabric fabric(2, 0.5);
  fabric::Flow f = make_flow(0, 0, 10.0, 0, 1);
  f.compress_ratio = 0.75;
  FlowEval ev = evaluate_flow(env(fabric, idle_, &kUnitCodec, 1.0), f, false);
  EXPECT_TRUE(ev.beta);
  EXPECT_DOUBLE_EQ(ev.fct, 19.0);
  // At 90%, R·(1-ξ) = 0.4 < B: the codec's own 0.5 would have compressed.
  f.compress_ratio = 0.9;
  ev = evaluate_flow(env(fabric, idle_, &kUnitCodec, 1.0), f, false);
  EXPECT_FALSE(ev.beta);
  EXPECT_DOUBLE_EQ(ev.fct, 20.0);  // 1 + (10 - 0.5)/0.5
}

TEST_F(EvaluateFlow, Pseudocode1EveryConditionCloses) {
  // Each case breaks one condition of an otherwise compressing flow
  // (R·(1-ξ) = 2 > B = 1), so β = 0 and Γ = 1 + (10 - 1)/1 = 10.
  const fabric::Fabric fabric(2, 1.0);
  const EvalEnv open = env(fabric, idle_, &kUnitCodec, 1.0);
  fabric::Flow incompressible = make_flow(0, 0, 10.0, 0, 1);
  incompressible.compressible = false;
  fabric::Flow drained = make_flow(0, 0, 0.0, 0, 1);
  drained.compressed_pending = 10.0;  // all raw bytes already compressed
  const codec::CodecModel slow{"slow", 2.0, 8.0, 0.5};  // R(1-ξ) = 1 = B
  const std::pair<const char*, FlowEval> cases[] = {
      {"incompressible", evaluate_flow(open, incompressible, false)},
      {"no raw bytes", evaluate_flow(open, drained, false)},
      {"busy CPU", evaluate_flow(env(fabric, busy_, &kUnitCodec, 1.0),
                                 make_flow(0, 0, 10.0, 0, 1), false)},
      {"Eq. 3 tie", evaluate_flow(env(fabric, idle_, &slow, 1.0),
                                  make_flow(0, 0, 10.0, 0, 1), false)},
  };
  for (const auto& [what, ev] : cases) {
    EXPECT_FALSE(ev.beta) << what;
    EXPECT_DOUBLE_EQ(ev.fct, 10.0) << what;
  }
}

TEST_F(EvaluateFlow, CpuFloorClosesTheGateWhereEq3Holds) {
  // B = 0.05: at h = 0.049, R·h·(1-ξ) = 0.098 > B, yet h is under the 5%
  // floor; at h = kMinCompressionHeadroom the gate opens.
  const fabric::Fabric fabric(2, 0.05);
  const fabric::Flow f = make_flow(0, 0, 10.0, 0, 1);
  const cpu::ConstantCpu under(0.049);
  const cpu::ConstantCpu at_floor(cpu::kMinCompressionHeadroom);
  EXPECT_FALSE(
      evaluate_flow(env(fabric, under, &kUnitCodec, 1.0), f, false).beta);
  EXPECT_TRUE(
      evaluate_flow(env(fabric, at_floor, &kUnitCodec, 1.0), f, false).beta);
}

TEST_F(EvaluateFlow, ForcedCompressionSkipsOnlyEq3) {
  // FVDF-BLIND: R(1-ξ) = 0.75 < B = 1 still compresses. δ = 1:
  // Δc = 1.5·1·0.5 = 0.75, Γ = 1 + (10 - 0.75)/1 = 10.25.
  const fabric::Fabric fabric(2, 1.0);
  const codec::CodecModel slow{"slow", 1.5, 6.0, 0.5};
  const fabric::Flow f = make_flow(0, 0, 10.0, 0, 1);
  const FlowEval ev = evaluate_flow(env(fabric, idle_, &slow, 1.0), f, true);
  EXPECT_TRUE(ev.beta);
  EXPECT_DOUBLE_EQ(ev.fct, 10.25);
  EXPECT_FALSE(evaluate_flow(env(fabric, idle_, &slow, 1.0), f, false).beta);
  // The rest of Pseudocode 1 still holds it back.
  EXPECT_FALSE(evaluate_flow(env(fabric, busy_, &slow, 1.0), f, true).beta);
  EXPECT_FALSE(evaluate_flow(env(fabric, idle_, nullptr, 1.0), f, true).beta);
}

TEST_F(EvaluateFlow, BottleneckIsMinOfPortCapacities) {
  // V = 10, δ = 1, no codec: Γ = 1 + (10 - B)/B.
  const fabric::Fabric fabric({4.0, 8.0}, {6.0, 2.0});
  const EvalEnv e = env(fabric, idle_, nullptr, 1.0);
  // src 0 -> dst 1: B = min(4, 2) = 2, Γ = 1 + 8/2 = 5.
  EXPECT_DOUBLE_EQ(evaluate_flow(e, make_flow(0, 0, 10.0, 0, 1), false).fct,
                   5.0);
  // src 0 -> dst 0: B = min(4, 6) = 4, Γ = 1 + 6/4 = 2.5.
  EXPECT_DOUBLE_EQ(evaluate_flow(e, make_flow(0, 0, 10.0, 0, 0), false).fct,
                   2.5);
}

TEST_F(EvaluateFlow, DisposalPastTheVolumeLeavesOneSlice) {
  // V = 0.1 < B·δ = 10: Γ = δ + 0 = 1.
  const fabric::Fabric fabric(2, 10.0);
  EXPECT_DOUBLE_EQ(evaluate_flow(env(fabric, idle_, nullptr, 1.0),
                                 make_flow(0, 0, 0.1, 0, 1), false)
                       .fct,
                   1.0);
}

TEST_F(EvaluateFlow, FailedLinkIsUnboundedButStillCompresses) {
  // B = 0: no slice transmits, Γ = +inf; Eq. 3 holds trivially at B = 0.
  fabric::Fabric fabric(2, 1.0);
  fabric.set_port_multiplier(0, 0.0);
  const FlowEval ev = evaluate_flow(env(fabric, idle_, &kUnitCodec, 1.0),
                                    make_flow(0, 0, 10.0, 0, 1), false);
  EXPECT_TRUE(ev.beta);
  EXPECT_EQ(ev.fct, std::numeric_limits<common::Seconds>::infinity());
}

TEST_F(EvaluateFlow, Lz4GateMatchesPaperBandwidthStory) {
  // LZ4 from Table II: R(1-ξ) = 785 MB/s * 0.3785 ~ 297 MB/s, so
  // compression is on at 100 Mbps and 1 Gbps and off at 10 Gbps — how the
  // paper explains FVDF ~ SEBF on fast networks (Section VI-B2) — and at
  // 1 Gbps only while the CPU is free: 10% headroom leaves ~30 MB/s.
  const fabric::Flow f = make_flow(0, 0, 1e9, 0, 1);
  const cpu::ConstantCpu tenth(0.1);
  for (const auto& [bw, provider, expect] :
       std::vector<std::tuple<common::Bps, const cpu::CpuProvider*, bool>>{
           {mbps(100), &idle_, true},
           {gbps(1), &idle_, true},
           {gbps(10), &idle_, false},
           {gbps(1), &tenth, false}}) {
    const fabric::Fabric fabric(2, bw);
    EXPECT_EQ(evaluate_flow(env(fabric, *provider,
                                &codec::default_codec_model(),
                                common::kDefaultSlice),
                            f, false)
                  .beta,
              expect)
        << bw;
  }
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

// The value of `ev`'s argument `key`.
template <typename T>
T arg(const obs::TraceEvent& ev, std::string_view key) {
  for (const obs::Arg& a : ev.args)
    if (a.key != nullptr && key == a.key) return std::get<T>(a.value);
  ADD_FAILURE() << ev.name << " has no arg " << key;
  return T{};
}

TracedRound traced_round(sched::SchedContext ctx, const char* variant) {
  obs::Tracer tracer;
  ctx.sink = &tracer;
  TracedRound out;
  out.alloc = make_scheduler(variant)->schedule(ctx);
  for (const obs::TraceEvent& ev : tracer.events()) {
    const std::string_view name = ev.name;
    if (name == "coflow_estimate") {
      const auto id = arg<std::uint64_t>(ev, "coflow");
      out.gamma[id] = arg<double>(ev, "gamma");
      out.key[id] = arg<double>(ev, "key");
    } else if (name == "beta_decision" && arg<bool>(ev, "beta")) {
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
