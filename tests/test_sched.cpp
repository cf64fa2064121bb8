// Baseline-scheduler tests: per-algorithm ordering semantics on hand-built
// scenarios, cross-cutting properties (feasibility, work conservation, no
// compression) parameterized over every baseline, and the scheduler table
// that resolves every name.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <set>
#include <stdexcept>
#include <utility>

#include "codec/codec_model.hpp"
#include "cpu/cpu_model.hpp"
#include "sched/aalo.hpp"
#include "sched/scheduler.hpp"
#include "sim/experiment.hpp"

namespace swallow::sched {
namespace {

using sim::make_scheduler;

/// Two coflows on a 3x3 unit fabric (the Fig. 3 layout): C1 = {f0 (4, A),
/// f1 (4, B), f2 (2, C)}, C2 = {f3 (2, B), f4 (3, C)}.
struct World {
  World()
      : fabric_(std::vector<common::Bps>(3, 100.0),
                std::vector<common::Bps>(3, 1.0)),
        cpu_(1.0) {
    auto add_flow = [&](fabric::FlowId id, fabric::CoflowId cid,
                        fabric::PortId src, fabric::PortId dst, double bytes,
                        double arrival) {
      fabric::Flow f;
      f.id = id;
      f.coflow = cid;
      f.src = src;
      f.dst = dst;
      f.raw_remaining = bytes;
      f.original_bytes = bytes;
      f.arrival = arrival;
      flows_.push_back(f);
    };
    add_flow(0, 1, 0, 0, 4, 0.00);
    add_flow(1, 1, 1, 1, 4, 0.01);
    add_flow(2, 1, 0, 2, 2, 0.03);
    add_flow(3, 2, 2, 1, 2, 0.04);
    add_flow(4, 2, 1, 2, 3, 0.02);
    c1_.id = 1;
    c1_.arrival = 0;
    c1_.flows = {0, 1, 2};
    c2_.id = 2;
    c2_.arrival = 0;
    c2_.flows = {3, 4};
  }

  SchedContext context() {
    SchedContext ctx;
    ctx.fabric = &fabric_;
    ctx.cpu = &cpu_;
    ctx.now = 1.0;
    for (auto& f : flows_)
      if (!f.done()) ctx.flows.push_back(&f);
    ctx.coflows = {&c1_, &c2_};
    return ctx;
  }

  fabric::Fabric fabric_;
  cpu::ConstantCpu cpu_;
  std::vector<fabric::Flow> flows_;
  fabric::Coflow c1_, c2_;
};

class SchedScenario : public ::testing::Test, public World {};

TEST_F(SchedScenario, FifoServesArrivalOrderPerPort) {
  auto sched = make_scheduler("FIFO");
  SchedContext ctx = context();
  const fabric::Allocation a = sched->schedule(ctx);
  // Port B: f1 (arrival .01) before f3 (.04); port C: f4 (.02) before f2.
  EXPECT_NEAR(a.rate(1), 1.0, 1e-9);
  EXPECT_NEAR(a.rate(3), 0.0, 1e-9);
  EXPECT_NEAR(a.rate(4), 1.0, 1e-9);
  EXPECT_NEAR(a.rate(2), 0.0, 1e-9);
  EXPECT_NEAR(a.rate(0), 1.0, 1e-9);
}

TEST_F(SchedScenario, PfpServesSmallestRemainingPerPort) {
  auto sched = make_scheduler("PFP");
  SchedContext ctx = context();
  const fabric::Allocation a = sched->schedule(ctx);
  // Port B: f3 (2) < f1 (4); port C: f2 (2) < f4 (3).
  EXPECT_NEAR(a.rate(3), 1.0, 1e-9);
  EXPECT_NEAR(a.rate(1), 0.0, 1e-9);
  EXPECT_NEAR(a.rate(2), 1.0, 1e-9);
  EXPECT_NEAR(a.rate(4), 0.0, 1e-9);
}

TEST_F(SchedScenario, PfpPrefersPartiallySentFlows) {
  flows_[1].raw_remaining = 1.5;  // f1 now smaller than f3
  auto sched = make_scheduler("PFP");
  SchedContext ctx = context();
  const fabric::Allocation a = sched->schedule(ctx);
  EXPECT_NEAR(a.rate(1), 1.0, 1e-9);
  EXPECT_NEAR(a.rate(3), 0.0, 1e-9);
}

TEST_F(SchedScenario, PffSplitsContendedPortsEvenly) {
  auto sched = make_scheduler("PFF");
  SchedContext ctx = context();
  const fabric::Allocation a = sched->schedule(ctx);
  EXPECT_NEAR(a.rate(1), 0.5, 1e-9);
  EXPECT_NEAR(a.rate(3), 0.5, 1e-9);
  EXPECT_NEAR(a.rate(0), 1.0, 1e-9);
}

TEST_F(SchedScenario, WssSplitsProportionallyToVolume) {
  auto sched = make_scheduler("WSS");
  SchedContext ctx = context();
  const fabric::Allocation a = sched->schedule(ctx);
  EXPECT_NEAR(a.rate(1), 2.0 / 3.0, 1e-9);  // 4 vs 2 on port B
  EXPECT_NEAR(a.rate(3), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(a.rate(2), 0.4, 1e-9);  // 2 vs 3 on port C
  EXPECT_NEAR(a.rate(4), 0.6, 1e-9);
}

TEST_F(SchedScenario, SebfAdmitsSmallerBottleneckFirst) {
  auto sched = make_scheduler("SEBF");
  SchedContext ctx = context();
  const fabric::Allocation a = sched->schedule(ctx);
  // Gamma(C2) = 3 < Gamma(C1) = 4: C2's flows get their MADD rates.
  EXPECT_NEAR(a.rate(3), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(a.rate(4), 1.0, 1e-9);
  // C1 backfills: f0 full port, f1 the leftover third of port B.
  EXPECT_NEAR(a.rate(0), 1.0, 1e-9);
  EXPECT_NEAR(a.rate(1), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(a.rate(2), 0.0, 1e-9);
}

TEST_F(SchedScenario, SebfWithoutBackfillLeavesResidualIdle) {
  auto sched = make_scheduler("SEBF-NOBACKFILL");
  SchedContext ctx = context();
  const fabric::Allocation a = sched->schedule(ctx);
  EXPECT_NEAR(a.rate(3), 2.0 / 3.0, 1e-9);
  // f1's MADD want is 4/4 = 1 but only 1/3 remains on port B.
  EXPECT_NEAR(a.rate(1), 1.0 / 3.0, 1e-9);
  // f0's MADD want is exactly 1, satisfied without backfill.
  EXPECT_NEAR(a.rate(0), 1.0, 1e-9);
}

TEST_F(SchedScenario, ScfPrefersSmallerTotalBytes) {
  auto sched = make_scheduler("SCF");
  SchedContext ctx = context();
  const fabric::Allocation a = sched->schedule(ctx);
  // C2 total (5) < C1 total (10): C2's flows head both contended ports.
  EXPECT_NEAR(a.rate(3), 1.0, 1e-9);
  EXPECT_NEAR(a.rate(4), 1.0, 1e-9);
  EXPECT_NEAR(a.rate(1), 0.0, 1e-9);
  EXPECT_NEAR(a.rate(2), 0.0, 1e-9);
}

TEST_F(SchedScenario, NcfPrefersNarrowerCoflow) {
  auto sched = make_scheduler("NCF");
  SchedContext ctx = context();
  const fabric::Allocation a = sched->schedule(ctx);
  // C2 width (2) < C1 width (3).
  EXPECT_NEAR(a.rate(3), 1.0, 1e-9);
  EXPECT_NEAR(a.rate(1), 0.0, 1e-9);
}

TEST_F(SchedScenario, LcfPrefersSmallerMaxFlow) {
  auto sched = make_scheduler("LCF");
  SchedContext ctx = context();
  const fabric::Allocation a = sched->schedule(ctx);
  // max(C2) = 3 < max(C1) = 4.
  EXPECT_NEAR(a.rate(3), 1.0, 1e-9);
  EXPECT_NEAR(a.rate(1), 0.0, 1e-9);
}

TEST(SchedulerTable, EveryNameRoundTrips) {
  const std::vector<std::string> names = sim::scheduler_names();
  const std::set<std::string> expected = {
      "FIFO",       "PFF",            "WSS",             "PFP",
      "SEBF",       "SCF",            "NCF",             "LCF",
      "AALO",       "SINCRONIA",      "FVDF",            "FVDF-NC",
      "FVDF-BLIND", "FVDF-NOUPGRADE", "FVDF-NOBACKFILL", "DEADLINE-FVDF"};
  EXPECT_EQ(names.size(), expected.size());  // no name listed twice
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()), expected);

  // Every entry builds a scheduler that answers to it, in any letter case.
  for (const std::string& name : names) {
    EXPECT_EQ(make_scheduler(name)->name(), name);
    std::string lower = name;
    std::transform(lower.begin(), lower.end(), lower.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    EXPECT_EQ(make_scheduler(lower)->name(), name) << lower;
  }

  // Labels keep their own name(); an alias gives its target's.
  const std::pair<const char*, const char*> spellings[] = {
      {"FAIR", "FAIR"},           {"fair", "FAIR"},
      {"SRTF", "SRTF"},           {"srtf", "SRTF"},
      {"SEBF-NOBACKFILL", "SEBF-NOBACKFILL"},
      {"sebf-nobackfill", "SEBF-NOBACKFILL"},
      {"BSSI", "SINCRONIA"},      {"bssi", "SINCRONIA"},
      {"DFVDF", "DEADLINE-FVDF"}, {"dfvdf", "DEADLINE-FVDF"},
      {"Deadline-Fvdf", "DEADLINE-FVDF"}};
  for (const auto& [spelling, name] : spellings)
    EXPECT_EQ(make_scheduler(spelling)->name(), name) << spelling;

  // An unknown name throws, and the message lists every enumerated name.
  try {
    make_scheduler("bogus");
    FAIL() << "bogus resolved";
  } catch (const std::out_of_range& e) {
    std::string known;
    for (const std::string& name : names)
      known += (known.empty() ? "" : ", ") + name;
    EXPECT_NE(std::string(e.what()).find("(known: " + known + ")"),
              std::string::npos)
        << e.what();
  }
}

class BaselineProperty : public ::testing::TestWithParam<std::string> {};

TEST_P(BaselineProperty, AllocationIsFeasible) {
  World scenario;
  auto sched = make_scheduler(GetParam());
  SchedContext ctx = scenario.context();
  const fabric::Allocation a = sched->schedule(ctx);
  EXPECT_TRUE(feasible(a, ctx.flows, *ctx.fabric));
}

TEST_P(BaselineProperty, WorkConservingOnSaturatedPorts) {
  World scenario;
  auto sched = make_scheduler(GetParam());
  SchedContext ctx = scenario.context();
  const fabric::Allocation a = sched->schedule(ctx);
  // Every egress port with pending demand is fully used.
  double port_b = a.rate(1) + a.rate(3);
  double port_c = a.rate(2) + a.rate(4);
  EXPECT_NEAR(a.rate(0), 1.0, 1e-9);
  EXPECT_NEAR(port_b, 1.0, 1e-9);
  EXPECT_NEAR(port_c, 1.0, 1e-9);
}

TEST_P(BaselineProperty, BaselinesNeverCompress) {
  World scenario;
  auto sched = make_scheduler(GetParam());
  SchedContext ctx = scenario.context();
  ctx.codec = &codec::default_codec_model();
  const fabric::Allocation a = sched->schedule(ctx);
  for (const auto* f : ctx.flows) EXPECT_FALSE(a.compress(f->id));
}

INSTANTIATE_TEST_SUITE_P(AllBaselines, BaselineProperty,
                         ::testing::Values("FIFO", "PFF", "WSS", "PFP",
                                           "SEBF", "SCF", "NCF", "LCF",
                                           "AALO", "SINCRONIA"),
                         [](const auto& info) { return info.param; });

// ---- Aalo (D-CLAS) extension. ----

TEST(Aalo, QueueIndexFollowsGeometricThresholds) {
  AaloScheduler aalo;  // 10 MB first threshold, factor 10
  const double mb = 1024.0 * 1024.0;
  EXPECT_EQ(aalo.queue_of(0), 0u);
  EXPECT_EQ(aalo.queue_of(9 * mb), 0u);
  EXPECT_EQ(aalo.queue_of(10 * mb), 1u);
  EXPECT_EQ(aalo.queue_of(99 * mb), 1u);
  EXPECT_EQ(aalo.queue_of(100 * mb), 2u);
  EXPECT_EQ(aalo.queue_of(1e18), 9u);  // clamped to the last queue
}

TEST(Aalo, FreshCoflowPreemptsHeavyHitter) {
  // The old coflow has transmitted past the first threshold; a fresh one,
  // regardless of its (unknown) size, sits in queue 0 and wins the port.
  World scenario;
  // Mark C1's flows as having sent 20 MB already.
  for (auto& f : scenario.flows_)
    if (f.coflow == 1) f.sent = 20.0 * 1024 * 1024;
  auto sched = make_scheduler("AALO");
  SchedContext ctx = scenario.context();
  const fabric::Allocation a = sched->schedule(ctx);
  EXPECT_NEAR(a.rate(3), 1.0, 1e-9);  // C2's flow heads port B
  EXPECT_NEAR(a.rate(1), 0.0, 1e-9);
  EXPECT_NEAR(a.rate(4), 1.0, 1e-9);  // and port C
  EXPECT_NEAR(a.rate(2), 0.0, 1e-9);
}

TEST(Aalo, FifoWithinAQueue) {
  // Both coflows below the first threshold: arrival order decides (C1 and
  // C2 arrive together, id breaks the tie -> C1 first, unlike PFP/SCF).
  World scenario;
  auto sched = make_scheduler("AALO");
  SchedContext ctx = scenario.context();
  const fabric::Allocation a = sched->schedule(ctx);
  EXPECT_NEAR(a.rate(1), 1.0, 1e-9);
  EXPECT_NEAR(a.rate(3), 0.0, 1e-9);
}

TEST(SchedScenarioEmpty, SchedulersHandleNoFlows) {
  const fabric::Fabric fabric(2, 1.0);
  const cpu::ConstantCpu cpu(1.0);
  for (const auto& name : sim::scheduler_names()) {
    auto sched = make_scheduler(name);
    SchedContext ctx;
    ctx.fabric = &fabric;
    ctx.cpu = &cpu;
    const fabric::Allocation a = sched->schedule(ctx);
    EXPECT_EQ(a.rate(0), 0.0) << name;
    EXPECT_FALSE(a.compress(0)) << name;
  }
}

}  // namespace
}  // namespace swallow::sched
