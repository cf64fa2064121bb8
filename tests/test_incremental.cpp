// Incremental scheduling (DESIGN.md section 11): byte-identity against a
// naive reference, plus unit coverage of the dirty-set tracker and the rank
// index.
//
// The engine runs the same event-driven sequence twice — once under the
// production scheduler (DirtyTracker feed, memoized Γ, rank-index walks) and
// once under its reference twin from reference_sched.hpp (full stable_sort
// recompute every round) — and every Metrics record must match with exact
// FP equality. The randomized sweep crosses schedulers with degradation,
// quantized completions and non-constant CPU providers, which together
// exercise every dirty rule: arrivals, flow completions,
// compression-finished, capacity multipliers, CPU headroom changes and
// priority upgrades.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cpu/cpu_model.hpp"
#include "reference_sched.hpp"
#include "sched/dirty.hpp"
#include "sched/rank_index.hpp"
#include "sim/experiment.hpp"

namespace {

using namespace swallow;

workload::Trace make_trace(std::uint64_t seed, std::size_t coflows,
                           std::size_t ports) {
  workload::GeneratorConfig gen;
  gen.num_ports = ports;
  gen.num_coflows = coflows;
  gen.mean_interarrival = 0.3;
  gen.size_lo = 1e5;
  gen.size_hi = 2e8;
  gen.size_alpha = 0.2;
  gen.width_lo = 1;
  gen.width_hi = 5;
  gen.seed = seed;
  return workload::generate_trace(gen);
}

sim::Metrics run_once(const workload::Trace& trace,
                      const fabric::Fabric& fabric,
                      const cpu::CpuProvider& cpu, const std::string& name,
                      sim::SimConfig config, bool reference) {
  config.engine_mode = sim::EngineMode::kEventDriven;
  // Fresh each run: schedulers are stateful.
  auto sched = reference ? reference::make_reference(name)
                         : sim::make_scheduler(name);
  return sim::run_simulation(trace, fabric, cpu, *sched, config);
}

// Exact (bitwise-value) comparison of every record the engine emits.
void expect_identical(const sim::Metrics& a, const sim::Metrics& b,
                      const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].id, b.flows[i].id);
    EXPECT_EQ(a.flows[i].completion, b.flows[i].completion) << "flow " << i;
    EXPECT_EQ(a.flows[i].wire_bytes, b.flows[i].wire_bytes) << "flow " << i;
  }
  ASSERT_EQ(a.coflows.size(), b.coflows.size());
  for (std::size_t i = 0; i < a.coflows.size(); ++i) {
    EXPECT_EQ(a.coflows[i].id, b.coflows[i].id);
    EXPECT_EQ(a.coflows[i].completion, b.coflows[i].completion)
        << "coflow " << i;
    EXPECT_EQ(a.coflows[i].wire_bytes, b.coflows[i].wire_bytes)
        << "coflow " << i;
  }
  ASSERT_EQ(a.utilization.size(), b.utilization.size());
  for (std::size_t i = 0; i < a.utilization.size(); ++i) {
    EXPECT_EQ(a.utilization[i].t, b.utilization[i].t);
    EXPECT_EQ(a.utilization[i].egress_utilization,
              b.utilization[i].egress_utilization)
        << "sample " << i;
  }
  EXPECT_EQ(a.degradation.capacity_changes, b.degradation.capacity_changes);
  EXPECT_EQ(a.degradation.link_failures, b.degradation.link_failures);
  EXPECT_EQ(a.degradation.stalled_flow_slices,
            b.degradation.stalled_flow_slices);
  EXPECT_EQ(a.degradation.compression_flips, b.degradation.compression_flips);
}

void expect_reference_identity(const workload::Trace& trace,
                               const fabric::Fabric& fabric,
                               const cpu::CpuProvider& cpu,
                               const std::string& name,
                               const sim::SimConfig& config,
                               const std::string& label) {
  const sim::Metrics prod = run_once(trace, fabric, cpu, name, config, false);
  const sim::Metrics ref = run_once(trace, fabric, cpu, name, config, true);
  expect_identical(prod, ref, label);
}

TEST(IncrementalIdentity, RandomizedSweep) {
  // Schedulers x degradation x quantized completions, two seeds each. FVDF
  // covers priority upgrades and the compression dirty rules; SEBF and AALO
  // cover the non-FVDF index paths.
  const std::vector<std::string> names = {
      "FVDF",           "FVDF-NC", "FVDF-BLIND", "FVDF-NOUPGRADE",
      "FVDF-NOBACKFILL", "SEBF",   "AALO"};
  for (const std::uint64_t seed : {3ull, 11ull}) {
    const workload::Trace trace = make_trace(seed, 24, 12);
    const fabric::Fabric fabric(trace.num_ports, common::mbps(150));
    const cpu::ConstantCpu cpu(0.85);
    for (const bool degrade : {false, true}) {
      for (const bool quantize : {false, true}) {
        sim::SimConfig config;
        config.codec = &codec::default_codec_model();
        config.quantize_completions = quantize;
        config.utilization_sample_period = 0.25;
        config.max_time = 72000.0;
        if (degrade) {
          config.degradation.rate = 0.15;
          config.degradation.seed = seed + 1;
          config.degradation.failure_fraction = 0.3;
        }
        for (const std::string& name : names) {
          const std::string label =
              name + " seed=" + std::to_string(seed) +
              " degrade=" + (degrade ? "1" : "0") +
              " quantize=" + (quantize ? "1" : "0");
          expect_reference_identity(trace, fabric, cpu, name, config,
                                    label);
        }
      }
    }
  }
}

TEST(IncrementalIdentity, BlindCompressesWhereTheGateRefuses) {
  // At 100-150 Mbps the Eq. 3 gate passes for every flow of these traces,
  // so FVDF-BLIND allocates exactly as FVDF does. At 10 Gbps the wire
  // outruns the codec and the gate refuses compression for many flows;
  // BLIND forces β for them anyway, so it must put fewer bytes on the wire
  // than FVDF.
  const workload::Trace trace = make_trace(3, 24, 12);
  const fabric::Fabric fabric(trace.num_ports, common::gbps(10));
  const cpu::ConstantCpu cpu(0.85);
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();
  config.utilization_sample_period = 0.25;
  config.max_time = 72000.0;
  for (const std::string name : {"FVDF-BLIND", "FVDF-NC"})
    expect_reference_identity(trace, fabric, cpu, name, config,
                              name + " at 10 Gbps");
  const sim::Metrics fvdf = run_once(trace, fabric, cpu, "FVDF", config,
                                     false);
  const sim::Metrics blind = run_once(trace, fabric, cpu, "FVDF-BLIND",
                                      config, false);
  EXPECT_LT(blind.total_wire_bytes(), fvdf.total_wire_bytes());
}

TEST(IncrementalIdentity, WindowedCpuHeavyFailures) {
  // Non-constant CPU under heavy link failures: exercises the per-port CPU
  // sampling rule (value-compared headroom + compress gate) together with
  // capacity dirtying and long starvation stretches (priority upgrades).
  const workload::Trace trace = make_trace(17, 20, 10);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(100));
  const cpu::WindowedCpu cpu({{0.0, 1.0}, {2.0, 3.5}, {5.0, 9.0}}, 0.9, 0.0);
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();
  config.utilization_sample_period = 0.5;
  config.max_time = 72000.0;
  config.degradation.rate = 0.2;
  config.degradation.seed = 29;
  config.degradation.failure_fraction = 0.4;
  expect_reference_identity(trace, fabric, cpu, "FVDF", config,
                            "windowed cpu, heavy failures");
  expect_reference_identity(trace, fabric, cpu, "SEBF", config,
                            "windowed cpu, heavy failures, sebf");
  expect_reference_identity(trace, fabric, cpu, "AALO", config,
                            "windowed cpu, heavy failures, aalo");
}

TEST(IncrementalIdentity, BurstyCpu) {
  const workload::Trace trace = make_trace(23, 16, 8);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(100));
  cpu::BurstyCpu::Config bc;
  bc.nodes = 8;
  bc.idle_fraction = 0.5;
  bc.mean_burst = 0.5;
  bc.seed = 31;
  const cpu::BurstyCpu cpu(bc);
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();
  expect_reference_identity(trace, fabric, cpu, "FVDF", config,
                            "bursty cpu");
  expect_reference_identity(trace, fabric, cpu, "FVDF-BLIND", config,
                            "bursty cpu, blind");
  expect_reference_identity(trace, fabric, cpu, "DEADLINE-FVDF", config,
                            "bursty cpu, deadline-fvdf");
}

TEST(IncrementalIdentity, OverloadedTraceWithDenseReKeys) {
  // The regime the rank index is built for, which the small traces above
  // never reach: coflows arrive faster than the fabric drains them, so 50
  // or more stay resident, and most transmitting coflows drain, and so
  // re-key, every round (FVDF re-keys about 60% of its transmitting index
  // per walk here, against about 40% on the replay-fvdf benchmark). Half
  // carry deadlines, filling DEADLINE-FVDF's bands.
  workload::GeneratorConfig gen;
  gen.num_ports = 32;
  gen.num_coflows = 200;
  gen.mean_interarrival = 0.01;
  gen.size_lo = 1e5;
  gen.size_hi = 1e8;
  gen.size_alpha = 0.15;
  gen.width_lo = 1;
  gen.width_hi = 4;
  gen.deadline_fraction = 0.5;
  gen.seed = 6;
  const workload::Trace trace = workload::generate_trace(gen);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(100));
  const cpu::ConstantCpu cpu(0.9);
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();
  config.max_time = 72000.0;
  for (const std::string name : {"FVDF", "SEBF", "AALO", "DEADLINE-FVDF"}) {
    const sim::Metrics prod = run_once(trace, fabric, cpu, name, config,
                                       false);
    const sim::Metrics ref = run_once(trace, fabric, cpu, name, config, true);
    expect_identical(prod, ref, name + " overloaded");
    // The trace must stay overloaded: count the coflows resident at each
    // arrival.
    std::size_t peak = 0;
    for (const sim::CoflowRecord& a : prod.coflows) {
      std::size_t resident = 0;
      for (const sim::CoflowRecord& c : prod.coflows)
        if (c.arrival <= a.arrival && a.arrival < c.completion) ++resident;
      peak = std::max(peak, resident);
    }
    EXPECT_GE(peak, 50u) << name;
  }
}

// Twin hand-built worlds driven in lockstep: one scheduler sees a
// DirtyTracker fed every drain, the other sees no tracker and so rebuilds
// from scratch each call. Same code path either way, so every allocation
// must match bit for bit.
struct LockstepWorld {
  fabric::Fabric fabric{8, common::mbps(100)};
  cpu::ConstantCpu cpu{0.9};
  std::vector<fabric::Flow> flows;
  std::vector<fabric::Coflow> coflows;
  sched::DirtyTracker tracker{8};
  sched::SchedContext ctx;

  explicit LockstepWorld(bool tracked) {
    std::uint64_t lcg = 7;
    auto next = [&lcg] {
      lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
      return lcg >> 33;
    };
    flows.reserve(120);
    for (fabric::CoflowId c = 0; c < 40; ++c) {
      fabric::Coflow co;
      co.id = c;
      co.arrival = 0.01 * static_cast<double>(c % 7);
      // Deadlines spread over the run: DEADLINE-FVDF's bands flip with time
      // alone (feasible -> deferred -> expired), not just with events.
      if (c % 3 != 1) co.deadline = 1.0 + 0.5 * static_cast<double>(c);
      for (int w = 0; w < 3; ++w) {
        fabric::Flow f;
        f.id = flows.size();
        f.coflow = c;
        f.src = static_cast<fabric::PortId>(next() % 8);
        f.dst = static_cast<fabric::PortId>(next() % 8);
        f.original_bytes = 1e6 + static_cast<double>(next() % 100) * 1e6;
        f.raw_remaining = f.original_bytes;
        co.flows.push_back(f.id);
        flows.push_back(f);
      }
      coflows.push_back(co);
    }
    ctx.fabric = &fabric;
    ctx.cpu = &cpu;
    ctx.codec = &codec::default_codec_model();
    if (tracked) {
      tracker.bind_flows(flows.data(), flows.size());
      for (const fabric::Coflow& c : coflows) tracker.coflow_arrived(&c);
      ctx.tracker = &tracker;
    }
  }

  // Drains every served flow by what one 0.5 s segment would move, then
  // rebuilds the round's flow list; every third round is a coflow event.
  void advance(const fabric::Allocation& a, int round) {
    for (fabric::Flow& f : flows) {
      if (f.done() || (a.rate(f.id) <= 0 && !a.compress(f.id))) continue;
      const double moved = a.compress(f.id) ? 2e6 : a.rate(f.id) * 0.5;
      f.raw_remaining = std::max(0.0, f.raw_remaining - moved);
      f.sent += moved;
      if (ctx.tracker != nullptr) tracker.flow_progressed(f.coflow);
    }
    ctx.now = 0.5 * static_cast<double>(round);
    ctx.coflow_event = round % 3 == 0;
    ctx.clear_round();
    for (fabric::Coflow& c : coflows) {
      bool live = false;
      for (const fabric::FlowId fid : c.flows)
        if (!flows[fid].done()) {
          ctx.flows.push_back(&flows[fid]);
          live = true;
        }
      if (live) ctx.coflows.push_back(&c);
    }
  }
};

TEST(IncrementalIdentity, TrackerlessRebuildMatchesTrackedRounds) {
  for (const std::string name :
       {"FVDF", "FVDF-BLIND", "SEBF", "AALO", "DEADLINE-FVDF"}) {
    SCOPED_TRACE(name);
    LockstepWorld tracked(true), bare(false);
    auto s_tracked = sim::make_scheduler(name);
    auto s_bare = sim::make_scheduler(name);
    fabric::Allocation a, b;
    for (int round = 0; round < 40; ++round) {
      tracked.advance(a, round);
      bare.advance(b, round);
      a = s_tracked->schedule(tracked.ctx);
      b = s_bare->schedule(bare.ctx);
      for (const fabric::Flow& f : tracked.flows) {
        ASSERT_EQ(a.rate(f.id), b.rate(f.id)) << "round " << round;
        ASSERT_EQ(a.compress(f.id), b.compress(f.id)) << "round " << round;
      }
    }
  }
}

TEST(IncrementalIdentity, ExpiryAloneMovesAnUnservedDeadlineCoflow) {
  // An infeasible deadline coflow parked in band 3 behind a best-effort
  // elephant is never served, so no event dirties it. Only DEADLINE-FVDF's
  // horizon pass can move it to band 2 at expiry, where its small Γ ranks
  // it ahead of the elephant. With and without a tracker alike. A 5 ms
  // deadline expires inside the first round's slice, so the horizon that
  // round's refresh arms must still be due at the next round's pass.
  for (const double deadline : {0.02, 0.005}) {
    for (const bool tracked : {true, false}) {
      SCOPED_TRACE(std::string(tracked ? "tracked" : "tracker-less") +
                   " deadline " + std::to_string(deadline));
      const fabric::Fabric fabric(2, common::mbps(100));
      const cpu::ConstantCpu cpu(0.9);
      std::vector<fabric::Flow> flows(2);
      std::vector<fabric::Coflow> coflows(2);
      for (fabric::FlowId i = 0; i < 2; ++i) {
        flows[i].id = i;
        flows[i].coflow = i;
        flows[i].src = 0;
        flows[i].dst = 1;
        flows[i].original_bytes = i == 0 ? 1e9 : 1e6;
        flows[i].raw_remaining = flows[i].original_bytes;
        coflows[i].id = i;
        coflows[i].flows = {i};
      }
      coflows[1].deadline = deadline;  // Γ ≈ 0.08 s: infeasible at once
      sched::DirtyTracker tracker(2);
      sched::SchedContext ctx;
      ctx.fabric = &fabric;
      ctx.cpu = &cpu;
      ctx.flows = {&flows[0], &flows[1]};
      ctx.coflows = {&coflows[0], &coflows[1]};
      if (tracked) {
        tracker.bind_flows(flows.data(), flows.size());
        for (const fabric::Coflow& c : coflows) tracker.coflow_arrived(&c);
        ctx.tracker = &tracker;
      }
      auto sched = sim::make_scheduler("DEADLINE-FVDF");
      fabric::Allocation a = sched->schedule(ctx);
      EXPECT_GT(a.rate(0), 0.0);
      EXPECT_EQ(a.rate(1), 0.0);  // parked in band 3

      flows[0].raw_remaining -= a.rate(0) * 0.5;
      if (tracked) tracker.flow_progressed(0);
      ctx.now = 0.5;
      ctx.coflow_event = false;
      a = sched->schedule(ctx);
      EXPECT_GT(a.rate(1), 0.0);  // expired: band 2, shortest Γ first
      EXPECT_EQ(a.rate(0), 0.0);
    }
  }
}

// ---- DirtyTracker unit tests ----

struct TrackerWorld {
  std::vector<fabric::Flow> flows;
  std::vector<fabric::Coflow> coflows;

  // One coflow, `width` flows on ports (src, dst), (src+0/1, dst) ...
  fabric::CoflowId add_coflow(std::vector<std::pair<fabric::PortId,
                                                    fabric::PortId>> lanes) {
    fabric::Coflow c;
    c.id = coflows.size();
    for (const auto& [src, dst] : lanes) {
      fabric::Flow f;
      f.id = flows.size();
      f.coflow = c.id;
      f.src = src;
      f.dst = dst;
      f.original_bytes = 1e6;
      f.raw_remaining = 1e6;
      c.flows.push_back(f.id);
      flows.push_back(f);
    }
    coflows.push_back(c);
    return c.id;
  }
};

TEST(DirtyTracker, CapacityChangeDirtiesExactlyResidents) {
  TrackerWorld w;
  const auto c0 = w.add_coflow({{0, 1}});
  const auto c1 = w.add_coflow({{2, 3}});
  const auto c2 = w.add_coflow({{0, 3}, {2, 1}});
  sched::DirtyTracker tracker(4);
  tracker.bind_flows(w.flows.data(), w.flows.size());
  for (const auto& c : w.coflows) tracker.coflow_arrived(&c);
  tracker.consume();  // drop the arrival marks

  // Port 0 ingress: c0 and c2 source there, c1 does not.
  tracker.port_capacity_changed(0);
  EXPECT_EQ(tracker.dirty(), (std::vector<fabric::CoflowId>{c0, c2}));
  EXPECT_EQ(tracker.level(c0), sched::DirtyLevel::kRecompute);
  EXPECT_EQ(tracker.level(c1), sched::DirtyLevel::kClean);
  tracker.consume();

  // Port 3 egress: c1 and c2 sink there.
  tracker.port_capacity_changed(3);
  EXPECT_EQ(tracker.dirty(), (std::vector<fabric::CoflowId>{c1, c2}));
  tracker.consume();

  // A port no coflow touches dirties nothing... and there is no port 1
  // sourcing, only sinking: src and dst residency are tracked separately.
  EXPECT_TRUE(tracker.src_residents(1).empty());
  EXPECT_EQ(tracker.src_residents(0),
            (std::vector<fabric::CoflowId>{c0, c2}));
  EXPECT_EQ(tracker.dst_residents(1),
            (std::vector<fabric::CoflowId>{c0, c2}));
}

TEST(DirtyTracker, CompletedResidentsArePrunedLazily) {
  TrackerWorld w;
  const auto c0 = w.add_coflow({{0, 1}});
  const auto c1 = w.add_coflow({{0, 2}});
  sched::DirtyTracker tracker(3);
  tracker.bind_flows(w.flows.data(), w.flows.size());
  for (const auto& c : w.coflows) tracker.coflow_arrived(&c);
  tracker.consume();

  w.coflows[c0].completion = 5.0;  // completed: must stop getting dirtied
  tracker.port_capacity_changed(0);
  EXPECT_EQ(tracker.dirty(), (std::vector<fabric::CoflowId>{c1}));
  // ... and the resident list was compacted in the same pass.
  EXPECT_EQ(tracker.src_residents(0), (std::vector<fabric::CoflowId>{c1}));
}

TEST(DirtyTracker, LevelsMergeUpwardAndConsumeClears) {
  TrackerWorld w;
  const auto c0 = w.add_coflow({{0, 1}});
  sched::DirtyTracker tracker(2);
  tracker.bind_flows(w.flows.data(), w.flows.size());
  tracker.coflow_arrived(&w.coflows[c0]);
  tracker.consume();

  tracker.priority_changed(c0);
  EXPECT_EQ(tracker.level(c0), sched::DirtyLevel::kKeyOnly);
  tracker.coflow_changed(c0);
  EXPECT_EQ(tracker.level(c0), sched::DirtyLevel::kRecompute);
  // A later key-only mark must not downgrade the recompute.
  tracker.priority_changed(c0);
  EXPECT_EQ(tracker.level(c0), sched::DirtyLevel::kRecompute);
  // Deduplicated: three marks, one dirty entry.
  EXPECT_EQ(tracker.dirty().size(), 1u);

  tracker.consume();
  EXPECT_TRUE(tracker.dirty().empty());
  EXPECT_EQ(tracker.level(c0), sched::DirtyLevel::kClean);
}

TEST(DirtyTracker, CpuSamplingDirtiesOnValueChangesOnly) {
  TrackerWorld w;
  const auto c0 = w.add_coflow({{0, 1}});
  w.add_coflow({{1, 0}});
  sched::DirtyTracker tracker(2);
  tracker.bind_flows(w.flows.data(), w.flows.size());
  for (const auto& c : w.coflows) tracker.coflow_arrived(&c);
  tracker.consume();

  // Constant provider: the first sample records, later samples never dirty.
  const cpu::ConstantCpu constant(0.9);
  tracker.sample_cpu(constant, 0.0);
  EXPECT_TRUE(tracker.dirty().empty());
  tracker.sample_cpu(constant, 10.0);
  EXPECT_TRUE(tracker.dirty().empty());

  // Windowed provider on port 0 only: idle until t=1, busy after. The
  // busy transition changes headroom at port 0 (and port 1 — same windows),
  // dirtying the coflows *sourced* at those ports.
  sched::DirtyTracker tracker2(2);
  tracker2.bind_flows(w.flows.data(), w.flows.size());
  for (const auto& c : w.coflows) tracker2.coflow_arrived(&c);
  tracker2.consume();
  const cpu::WindowedCpu windowed({{0.0, 1.0}}, 0.9, 0.0);
  tracker2.sample_cpu(windowed, 0.5);  // first sample: record only
  EXPECT_TRUE(tracker2.dirty().empty());
  tracker2.sample_cpu(windowed, 0.6);  // unchanged values: no dirt
  EXPECT_TRUE(tracker2.dirty().empty());
  tracker2.sample_cpu(windowed, 2.0);  // idle -> busy: both src ports moved
  EXPECT_EQ(tracker2.dirty().size(), 2u);
  EXPECT_EQ(tracker2.level(c0), sched::DirtyLevel::kRecompute);
}

// ---- RankIndex unit tests ----

TEST(RankIndex, OrderedIterationAndUpdate) {
  sched::RankIndex index;
  index.insert_or_update(7, {3.0, 0.0, 7});
  index.insert_or_update(2, {1.0, 0.0, 2});
  index.insert_or_update(5, {2.0, 0.0, 5});
  auto order = [&] {
    std::vector<fabric::CoflowId> ids;
    index.for_each([&](fabric::CoflowId id) { ids.push_back(id); });
    return ids;
  };
  EXPECT_EQ(order(), (std::vector<fabric::CoflowId>{2, 5, 7}));

  // Decrease-key moves the coflow; size is unchanged.
  index.insert_or_update(7, {0.5, 0.0, 7});
  EXPECT_EQ(order(), (std::vector<fabric::CoflowId>{7, 2, 5}));
  EXPECT_EQ(index.size(), 3u);

  // Re-insert with the identical key is a no-op.
  index.insert_or_update(5, {2.0, 0.0, 5});
  EXPECT_EQ(order(), (std::vector<fabric::CoflowId>{7, 2, 5}));

  // Ties on the primary key fall back to arrival, then id.
  index.insert_or_update(9, {2.0, 0.0, 9});
  index.insert_or_update(1, {2.0, -1.0, 1});
  EXPECT_EQ(order(), (std::vector<fabric::CoflowId>{7, 2, 1, 5, 9}));

  index.erase(2);
  EXPECT_FALSE(index.contains(2));
  EXPECT_TRUE(index.contains(5));
  EXPECT_EQ(order(), (std::vector<fabric::CoflowId>{7, 1, 5, 9}));
  index.erase(2);  // double-erase is a no-op
  EXPECT_EQ(index.size(), 4u);

  index.clear();
  EXPECT_EQ(index.size(), 0u);
  EXPECT_FALSE(index.contains(7));
}

TEST(RankIndex, InfinityKeysRankLastAndTieById) {
  // A failed link makes Γ infinite; +inf keys must sort after every finite
  // key and tie-break among themselves by (arrival, id) — matching the
  // full-path stable_sort exactly.
  const double inf = std::numeric_limits<double>::infinity();
  sched::RankIndex index;
  index.insert_or_update(4, {inf, 1.0, 4});
  index.insert_or_update(3, {2.0, 0.0, 3});
  index.insert_or_update(6, {inf, 1.0, 6});
  std::vector<fabric::CoflowId> ids;
  index.for_each([&](fabric::CoflowId id) { ids.push_back(id); });
  EXPECT_EQ(ids, (std::vector<fabric::CoflowId>{3, 4, 6}));
}

TEST(RankIndex, MatchesOrderedSetOracleUnderRandomOperations) {
  // Seeded random operations over a sparse id range, mirrored into a
  // std::set oracle. Updates pile up between walks, so each walk settles a
  // mix of inserts, re-keys (also to the current key, and away and back),
  // erases (also of absent ids), erase-then-reinsert and clear().
  const double inf = std::numeric_limits<double>::infinity();
  const double primaries[] = {0.0, 0.5, 1.0, 1.0, 2.5, inf, inf};
  constexpr fabric::CoflowId kMaxId = 5 * 63 + 2;
  std::mt19937_64 rng(1234);
  auto pick = [&rng](std::uint64_t n) { return rng() % n; };
  auto random_id = [&] { return 5 * pick(64) + 2; };  // 2, 7, ..., 317
  auto random_key = [&](fabric::CoflowId id) {
    // Few distinct primaries and arrivals: ties on both are common.
    return sched::CoflowRankKey{primaries[pick(7)],
                                0.25 * static_cast<double>(pick(4)), id};
  };

  sched::RankIndex index;
  std::set<sched::CoflowRankKey> oracle;
  std::map<fabric::CoflowId, sched::CoflowRankKey> current;
  auto set_key = [&](fabric::CoflowId id, const sched::CoflowRankKey& key) {
    index.insert_or_update(id, key);
    if (const auto it = current.find(id); it != current.end())
      oracle.erase(it->second);
    oracle.insert(key);
    current[id] = key;
  };
  auto erase = [&](fabric::CoflowId id) {
    index.erase(id);
    if (const auto it = current.find(id); it != current.end()) {
      oracle.erase(it->second);
      current.erase(it);
    }
  };
  auto present_id = [&] {
    auto it = current.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(pick(current.size())));
    return it->first;
  };

  int walks = 0;
  for (int step = 0; step < 6000; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    const std::uint64_t op = pick(20);
    if (op < 6) {  // insert, or re-key to a (usually) new key
      const fabric::CoflowId id = random_id();
      set_key(id, random_key(id));
    } else if (op < 8 && !current.empty()) {  // re-key to the current key
      const fabric::CoflowId id = present_id();
      set_key(id, current[id]);
    } else if (op < 10 && !current.empty()) {  // away and back before a walk
      const fabric::CoflowId id = present_id();
      const sched::CoflowRankKey old = current[id];
      set_key(id, random_key(id));
      set_key(id, old);
    } else if (op < 12 && !current.empty()) {  // erase a present id
      erase(present_id());
    } else if (op < 13) {  // erase an absent id, maybe past the table
      const fabric::CoflowId id = pick(2) != 0 ? random_id() + 1 : kMaxId + 9;
      erase(id);
    } else if (op < 15 && !current.empty()) {  // erase, then re-insert
      const fabric::CoflowId id = present_id();
      const sched::CoflowRankKey key = pick(2) != 0 ? current[id]
                                                    : random_key(id);
      erase(id);
      set_key(id, key);
    } else if (op == 15 && pick(8) == 0) {  // clear with updates pending
      std::vector<fabric::CoflowId> pending;
      for (int j = 0; j < 3; ++j) {
        pending.push_back(random_id());
        set_key(pending.back(), random_key(pending.back()));
      }
      index.clear();
      oracle.clear();
      current.clear();
      for (const fabric::CoflowId id : pending) set_key(id, random_key(id));
    } else if (op >= 16) {  // walk, in full or stopped at a random position
      ++walks;
      std::vector<fabric::CoflowId> want;
      for (const sched::CoflowRankKey& k : oracle) want.push_back(k.id);
      std::vector<fabric::CoflowId> got;
      if (pick(2) != 0) {
        index.for_each([&](fabric::CoflowId id) { got.push_back(id); });
      } else {  // stop after a random number of ids, at least one
        const std::size_t stop = 1 + pick(want.size() + 1);
        if (stop < want.size()) want.resize(stop);
        index.for_each_while([&](fabric::CoflowId id) {
          got.push_back(id);
          return got.size() < stop;
        });
      }
      ASSERT_EQ(got, want);
      ASSERT_EQ(index.size(), oracle.size());
      for (fabric::CoflowId id = 0; id <= kMaxId + 10; ++id)
        ASSERT_EQ(index.contains(id), current.count(id) != 0) << "id " << id;
    }
  }
  EXPECT_GT(walks, 1000);
}

}  // namespace
