// Deadline/SLO robustness layer (DESIGN.md section 12): trace deadlines,
// the DEADLINE-FVDF scheduler, admission control and expiry shedding.
//
// The two identity contracts guarded here:
//   1. Zero deadlines: DEADLINE-FVDF is bit-for-bit FVDF (every coflow lands
//      in the best-effort band whose key is FVDF's exact sort key), across
//      both engine modes and against the naive reference schedulers.
//   2. With deadlines: the production scheduler (dirty set + horizon pass)
//      is bit-for-bit the naive per-round recompute of reference_sched.hpp,
//      and the event-driven engine is bit-for-bit the slice-stepped
//      reference — including admission verdicts and mid-flight shedding,
//      which are engine-level and priced at mode-independent instants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/admission.hpp"
#include "cpu/cpu_model.hpp"
#include "fabric/degradation.hpp"
#include "reference_sched.hpp"
#include "shed_idle_cases.hpp"
#include "sim/experiment.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace {

using namespace swallow;

workload::Trace deadline_trace(std::uint64_t seed, std::size_t coflows,
                               std::size_t ports, double fraction,
                               double interarrival = 0.3) {
  workload::GeneratorConfig gen;
  gen.num_ports = ports;
  gen.num_coflows = coflows;
  gen.mean_interarrival = interarrival;
  gen.size_lo = 1e5;
  gen.size_hi = 2e8;
  gen.size_alpha = 0.2;
  gen.width_lo = 1;
  gen.width_hi = 5;
  gen.seed = seed;
  gen.deadline_fraction = fraction;
  gen.deadline_ref_bandwidth = common::mbps(150);
  return workload::generate_trace(gen);
}

sim::Metrics run_cfg(const workload::Trace& trace,
                     const fabric::Fabric& fabric,
                     const cpu::CpuProvider& cpu, const std::string& name,
                     sim::SimConfig config, sim::EngineMode mode,
                     bool reference = false) {
  config.engine_mode = mode;
  // Fresh each run: schedulers are stateful.
  auto sched = reference ? reference::make_reference(name)
                         : sim::make_scheduler(name);
  return sim::run_simulation(trace, fabric, cpu, *sched, config);
}

// Exact (bitwise-value) comparison of every record, including SLO fields.
void expect_identical(const sim::Metrics& a, const sim::Metrics& b,
                      const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].completion, b.flows[i].completion) << "flow " << i;
    EXPECT_EQ(a.flows[i].wire_bytes, b.flows[i].wire_bytes) << "flow " << i;
  }
  ASSERT_EQ(a.coflows.size(), b.coflows.size());
  for (std::size_t i = 0; i < a.coflows.size(); ++i) {
    EXPECT_EQ(a.coflows[i].completion, b.coflows[i].completion)
        << "coflow " << i;
    EXPECT_EQ(a.coflows[i].wire_bytes, b.coflows[i].wire_bytes)
        << "coflow " << i;
    EXPECT_EQ(a.coflows[i].deadline, b.coflows[i].deadline) << "coflow " << i;
    EXPECT_EQ(a.coflows[i].rejected, b.coflows[i].rejected) << "coflow " << i;
  }
  EXPECT_EQ(a.slo.with_deadline, b.slo.with_deadline);
  EXPECT_EQ(a.slo.admitted, b.slo.admitted);
  EXPECT_EQ(a.slo.degraded, b.slo.degraded);
  EXPECT_EQ(a.slo.deferred, b.slo.deferred);
  EXPECT_EQ(a.slo.rejected, b.slo.rejected);
  EXPECT_EQ(a.slo.shed_midflight, b.slo.shed_midflight);
  EXPECT_EQ(a.slo.shed_bytes, b.slo.shed_bytes);
  EXPECT_EQ(a.slo.repriced_shed, b.slo.repriced_shed);
  EXPECT_EQ(a.slo.repriced_demoted, b.slo.repriced_demoted);
}

// ---------------------------------------------------------------------------
// Trace substrate
// ---------------------------------------------------------------------------

TEST(SloTrace, GeneratorRoundTrip) {
  const workload::Trace t = deadline_trace(17, 20, 8, 0.6);
  EXPECT_TRUE(t.has_deadlines());
  std::size_t with = 0;
  for (const auto& c : t.coflows)
    if (c.has_deadline()) ++with;
  EXPECT_GT(with, 0u);
  EXPECT_LT(with, t.coflows.size());

  std::ostringstream out;
  workload::write_trace(out, t);
  std::istringstream in(out.str());
  const workload::Trace back = workload::parse_trace(in);
  ASSERT_EQ(back.coflows.size(), t.coflows.size());
  for (std::size_t i = 0; i < t.coflows.size(); ++i) {
    // Deadlines serialize in milliseconds, so round-trip is near (not bit)
    // exact; the best-effort/deadline split must be preserved exactly.
    EXPECT_EQ(back.coflows[i].has_deadline(), t.coflows[i].has_deadline());
    EXPECT_NEAR(back.coflows[i].deadline, t.coflows[i].deadline,
                1e-5 * std::max(1.0, t.coflows[i].deadline));
  }
}

TEST(SloTrace, ZeroFractionIsByteIdenticalToPreDeadlineGenerator) {
  // deadline_fraction = 0 must not perturb the main RNG stream: the written
  // trace has no `deadlines` directive and matches the historical bytes.
  workload::Trace a = deadline_trace(21, 12, 6, 0.0);
  EXPECT_FALSE(a.has_deadlines());
  std::ostringstream out;
  workload::write_trace(out, a);
  EXPECT_EQ(out.str().find("deadlines"), std::string::npos);

  // Same seed with deadlines on: identical arrivals/sizes, only deadlines
  // differ (the dedicated RNG stream leaves the main draws untouched).
  const workload::Trace b = deadline_trace(21, 12, 6, 0.5);
  ASSERT_EQ(a.coflows.size(), b.coflows.size());
  for (std::size_t i = 0; i < a.coflows.size(); ++i) {
    EXPECT_EQ(a.coflows[i].arrival, b.coflows[i].arrival) << i;
    ASSERT_EQ(a.coflows[i].flows.size(), b.coflows[i].flows.size());
    for (std::size_t j = 0; j < a.coflows[i].flows.size(); ++j)
      EXPECT_EQ(a.coflows[i].flows[j].bytes, b.coflows[i].flows[j].bytes);
  }
}

// ---------------------------------------------------------------------------
// Admission ladder (unit)
// ---------------------------------------------------------------------------

class AdmissionLadder : public ::testing::Test {
 protected:
  // One flow src 0 -> dst 1 of `bytes`, wrapped in a deadline coflow.
  fabric::Coflow make_coflow(fabric::CoflowId id, common::Bytes bytes,
                             common::Seconds deadline_rel,
                             bool compressible = false) {
    fabric::Flow f;
    f.id = flows_.size();
    f.coflow = id;
    f.src = 0;
    f.dst = 1;
    f.original_bytes = bytes;
    f.raw_remaining = bytes;
    f.compressible = compressible;
    flows_.push_back(f);
    fabric::Coflow c;
    c.id = id;
    c.arrival = 0;
    c.deadline = deadline_rel;
    c.flows.push_back(f.id);
    return c;
  }

  const common::Bps cap_ = common::mbps(100);
  fabric::Fabric fabric_{4, common::mbps(100)};
  cpu::ConstantCpu cpu_{1.0};
  std::vector<fabric::Flow> flows_;
};

TEST_F(AdmissionLadder, HopelessIsRejected) {
  core::AdmissionConfig cfg;
  cfg.enabled = true;
  core::AdmissionController ctl(cfg, fabric_);
  // 10 seconds of wire time against a 1 second deadline: hopeless even on
  // the nominal fabric with the coflow alone.
  const fabric::Coflow c = make_coflow(0, cap_ * 10.0, 1.0);
  const auto d = ctl.admit(c, flows_, fabric_, cpu_, nullptr, 0.0);
  EXPECT_EQ(d.verdict, core::AdmissionVerdict::kReject);
  EXPECT_STREQ(d.reason, "hopeless");
  EXPECT_EQ(ctl.committed_ingress(0), 0u);  // rejects commit nothing
}

TEST_F(AdmissionLadder, FeasibleIsAdmittedAndCommits) {
  core::AdmissionConfig cfg;
  cfg.enabled = true;
  core::AdmissionController ctl(cfg, fabric_);
  const fabric::Coflow c = make_coflow(0, cap_ * 0.1, 1.0);
  const auto d = ctl.admit(c, flows_, fabric_, cpu_, nullptr, 0.0);
  EXPECT_EQ(d.verdict, core::AdmissionVerdict::kAdmit);
  EXPECT_NEAR(d.t_uncompressed, 0.1, 1e-9);
  EXPECT_GT(ctl.committed_ingress(0), 0u);
  EXPECT_GT(ctl.committed_egress(1), 0u);
  ctl.release(c.id);
  EXPECT_EQ(ctl.committed_ingress(0), 0u);
}

TEST_F(AdmissionLadder, DegradedFabricDefers) {
  core::AdmissionConfig cfg;
  cfg.enabled = true;
  core::AdmissionController ctl(cfg, fabric_);
  fabric::Fabric live = fabric_;
  live.set_port_multiplier(0, 0.05);  // brownout at the sender
  // 0.1 s nominal, 2 s on the browned-out link, 0.5 s of slack: not
  // hopeless (nominal fits), infeasible right now -> defer.
  const fabric::Coflow c = make_coflow(0, cap_ * 0.1, 0.5);
  const auto d = ctl.admit(c, flows_, live, cpu_, nullptr, 0.0);
  EXPECT_EQ(d.verdict, core::AdmissionVerdict::kDefer);
  EXPECT_STREQ(d.reason, "infeasible_now");
  EXPECT_EQ(ctl.committed_ingress(0), 0u);  // defers commit nothing
}

TEST_F(AdmissionLadder, SlowCodecDegradesToUncompressed) {
  core::AdmissionConfig cfg;
  cfg.enabled = true;
  core::AdmissionController ctl(cfg, fabric_);
  codec::CodecModel slow;
  slow.name = "SLOW";
  slow.compress_speed = 1e3;  // pathological: encoding alone blows the SLO
  slow.decompress_speed = 1e9;
  slow.ratio = 0.5;
  const fabric::Coflow c =
      make_coflow(0, cap_ * 0.1, 1.0, /*compressible=*/true);
  const auto d = ctl.admit(c, flows_, fabric_, cpu_, &slow, 0.0);
  EXPECT_EQ(d.verdict, core::AdmissionVerdict::kDegrade);
  EXPECT_STREQ(d.reason, "compression_priced_out");
  EXPECT_GT(d.t_compressed, d.t_uncompressed);
}

TEST(AdmissionPricing, CompressedBoundUsesTheFlowsOwnRatio) {
  // One 1000 B flow whose payload compresses to 20%, under a codec whose
  // own ratio is 0.5. By hand: 1 s to encode 1000 B at 1000 B/s, then the
  // 200 B that remain cross the 100 B/s sender in 2 s, so 3 s; the
  // receiver sees the same 200 B in 2 s. Raw, 1000 B take 10 s.
  const fabric::Fabric fabric(2, 100.0);
  const cpu::ConstantCpu cpu(1.0);
  const codec::CodecModel codec{"t", 1000.0, 4000.0, 0.5};
  fabric::Flow f;
  f.src = 0;
  f.dst = 1;
  f.original_bytes = 1000;
  f.raw_remaining = 1000;
  f.compress_ratio = 0.2;
  fabric::Coflow c;
  c.deadline = 20;
  c.flows = {f.id};
  core::AdmissionConfig cfg;
  cfg.enabled = true;
  core::AdmissionController ctl(cfg, fabric);
  const auto d = ctl.admit(c, {f}, fabric, cpu, &codec, 0.0);
  EXPECT_DOUBLE_EQ(d.t_compressed, 3.0);
  EXPECT_DOUBLE_EQ(d.t_uncompressed, 10.0);
  EXPECT_EQ(d.verdict, core::AdmissionVerdict::kAdmit);
  // Behind a 1000 B/s sender the receiver bounds it: the sender takes
  // 1 s + 0.2 s, the receiver 200 B at 100 B/s = 2 s.
  const fabric::Fabric fast_sender({1000.0, 1000.0}, {100.0, 100.0});
  core::AdmissionController receiver_bound(cfg, fast_sender);
  EXPECT_DOUBLE_EQ(
      receiver_bound.admit(c, {f}, fast_sender, cpu, &codec, 0.0).t_compressed,
      2.0);
}

TEST_F(AdmissionLadder, ShareGuardShedsOverload) {
  core::AdmissionConfig cfg;
  cfg.enabled = true;
  core::AdmissionController ctl(cfg, fabric_);
  // Each coflow needs half the port for its whole slack window; the second
  // would push the promised share to 100%, past kMaxSloShare (90%) -> shed,
  // best-effort keeps its 10% of the fabric. Releasing the first re-opens
  // the gate.
  const fabric::Coflow a = make_coflow(0, cap_ * 0.5, 1.0);
  const fabric::Coflow b = make_coflow(1, cap_ * 0.5, 1.0);
  EXPECT_EQ(ctl.admit(a, flows_, fabric_, cpu_, nullptr, 0.0).verdict,
            core::AdmissionVerdict::kAdmit);
  const auto d = ctl.admit(b, flows_, fabric_, cpu_, nullptr, 0.0);
  EXPECT_EQ(d.verdict, core::AdmissionVerdict::kReject);
  EXPECT_STREQ(d.reason, "slo_share_exhausted");
  ctl.release(a.id);
  EXPECT_EQ(ctl.admit(b, flows_, fabric_, cpu_, nullptr, 0.0).verdict,
            core::AdmissionVerdict::kAdmit);
}

TEST_F(AdmissionLadder, BestEffortAlwaysPasses) {
  core::AdmissionConfig cfg;
  cfg.enabled = true;
  core::AdmissionController ctl(cfg, fabric_);
  fabric::Coflow c = make_coflow(0, cap_ * 100.0, 0.0);
  c.deadline = fabric::kNoDeadline;
  const auto d = ctl.admit(c, flows_, fabric_, cpu_, nullptr, 0.0);
  EXPECT_EQ(d.verdict, core::AdmissionVerdict::kAdmit);
  EXPECT_STREQ(d.reason, "best_effort");
  EXPECT_EQ(ctl.committed_ingress(0), 0u);
}

// ---------------------------------------------------------------------------
// Identity contracts
// ---------------------------------------------------------------------------

TEST(SloIdentity, ZeroDeadlinesMatchesFvdfBitForBit) {
  const workload::Trace trace = deadline_trace(5, 18, 10, 0.0);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(150));
  const cpu::ConstantCpu cpu(0.85);
  for (const bool degrade : {false, true}) {
    sim::SimConfig config;
    config.codec = &codec::default_codec_model();
    config.max_time = 72000.0;
    if (degrade) {
      config.degradation.rate = 0.12;
      config.degradation.seed = 9;
      config.degradation.failure_fraction = 0.3;
    }
    const std::string label = degrade ? " degraded" : "";
    using sim::EngineMode;
    for (const auto& [mode, ref, tag] :
         {std::tuple{EngineMode::kEventDriven, false, "event"},
          std::tuple{EngineMode::kEventDriven, true, "event+reference"},
          std::tuple{EngineMode::kSliceStepped, false, "slice"}}) {
      expect_identical(
          run_cfg(trace, fabric, cpu, "FVDF", config, mode, ref),
          run_cfg(trace, fabric, cpu, "DEADLINE-FVDF", config, mode, ref),
          std::string(tag) + label);
    }
  }
}

TEST(SloIdentity, ReferenceAndModeParityWithDeadlines) {
  // The hard one: deadlines + admission + shedding + degradation + quantize.
  // Crosses the horizon pass (feasibility flips over time), the admission
  // preemption points and the expiry caps against both oracles.
  for (const std::uint64_t seed : {3ull, 13ull}) {
    const workload::Trace trace = deadline_trace(seed, 22, 10, 0.7);
    const fabric::Fabric fabric(trace.num_ports, common::mbps(150));
    const cpu::ConstantCpu cpu(0.85);
    for (const bool admit : {false, true}) {
      for (const bool degrade : {false, true}) {
        sim::SimConfig config;
        config.codec = &codec::default_codec_model();
        config.quantize_completions = degrade;  // cross, not full product
        config.max_time = 72000.0;
        config.admission.enabled = admit;
        if (degrade) {
          config.degradation.rate = 0.12;
          config.degradation.seed = seed + 2;
          config.degradation.failure_fraction = 0.3;
        }
        const std::string label = "seed=" + std::to_string(seed) +
                                  " admit=" + (admit ? "1" : "0") +
                                  " degrade=" + (degrade ? "1" : "0");
        const sim::Metrics prod =
            run_cfg(trace, fabric, cpu, "DEADLINE-FVDF", config,
                    sim::EngineMode::kEventDriven);
        const sim::Metrics ref =
            run_cfg(trace, fabric, cpu, "DEADLINE-FVDF", config,
                    sim::EngineMode::kEventDriven, true);
        const sim::Metrics slice =
            run_cfg(trace, fabric, cpu, "DEADLINE-FVDF", config,
                    sim::EngineMode::kSliceStepped);
        expect_identical(prod, ref, label + " production-vs-reference");
        expect_identical(prod, slice, label + " event-vs-slice");
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Behavior
// ---------------------------------------------------------------------------

TEST(SloBehavior, AdmissionIsDeterministic) {
  const workload::Trace trace = deadline_trace(29, 24, 10, 0.8, 0.15);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(150));
  const cpu::ConstantCpu cpu(0.85);
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();
  config.admission.enabled = true;
  config.max_time = 72000.0;
  const auto a = run_cfg(trace, fabric, cpu, "DEADLINE-FVDF", config,
                         sim::EngineMode::kEventDriven);
  const auto b = run_cfg(trace, fabric, cpu, "DEADLINE-FVDF", config,
                         sim::EngineMode::kEventDriven);
  expect_identical(a, b, "replay");
  // Accounting invariants: every deadline arrival got exactly one verdict,
  // and the rejected flags in the records match the counters.
  EXPECT_EQ(a.slo.with_deadline,
            a.slo.admitted + a.slo.degraded + a.slo.deferred + a.slo.rejected);
  std::uint64_t flagged = 0;
  for (const auto& c : a.coflows)
    if (c.rejected) ++flagged;
  EXPECT_EQ(flagged, a.slo.rejected + a.slo.shed_midflight);
  for (const auto& c : a.coflows)
    EXPECT_EQ(c.rejected, !c.completed()) << "coflow " << c.id;
}

TEST(SloBehavior, MetFractionDoesNotDegradeAtLowLoadAndWinsUnderLoad) {
  // DEADLINE-FVDF's floor: never worse than FVDF when the fabric is idle
  // enough that every deadline is easy, and at least as good under heavy
  // load (where EDF banding + pacing + best-effort demotion should win).
  const fabric::Fabric fabric(10, common::mbps(150));
  const cpu::ConstantCpu cpu(0.85);
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();
  config.max_time = 72000.0;
  for (const double interarrival : {1.0, 0.1}) {
    const workload::Trace trace =
        deadline_trace(41, 30, 10, 0.7, interarrival);
    const auto fvdf = run_cfg(trace, fabric, cpu, "FVDF", config,
                              sim::EngineMode::kEventDriven);
    const auto dfvdf = run_cfg(trace, fabric, cpu, "DEADLINE-FVDF", config,
                               sim::EngineMode::kEventDriven);
    EXPECT_GE(dfvdf.deadline_met_fraction(), fvdf.deadline_met_fraction())
        << "interarrival=" << interarrival;
  }
}

TEST(SloBehavior, MetFractionMonotoneVsLoad) {
  // More load can only hurt: the lightest arrival rate must meet at least
  // as many deadlines as the heaviest (middle loads may wobble; the
  // endpoints are the contract).
  const fabric::Fabric fabric(10, common::mbps(150));
  const cpu::ConstantCpu cpu(0.85);
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();
  config.admission.enabled = true;
  config.max_time = 72000.0;
  std::vector<double> fractions;
  for (const double interarrival : {2.0, 0.3, 0.05}) {
    const workload::Trace trace =
        deadline_trace(43, 30, 10, 0.8, interarrival);
    const auto m = run_cfg(trace, fabric, cpu, "DEADLINE-FVDF", config,
                           sim::EngineMode::kEventDriven);
    fractions.push_back(m.deadline_met_fraction());
  }
  EXPECT_GE(fractions.front(), fractions.back());
  EXPECT_GT(fractions.front(), 0.5);  // light load: most deadlines met
}

TEST(SloBehavior, ShedExpiredDropsDoomedVolume) {
  // An admitted deadline coflow that misses behind a shorter best-effort
  // coflow is shed mid-flight: its volume stops consuming the fabric and
  // its records stay incomplete. The shed empties the fabric before the
  // next arrival (the case's comment gives the timeline).
  const shed_idle::Case c = shed_idle::expiry_shed();
  const fabric::Fabric fabric(2, shed_idle::kBandwidth);
  const cpu::ConstantCpu cpu(0.9);
  const auto m = run_cfg(c.trace, fabric, cpu, c.scheduler, c.config,
                         sim::EngineMode::kEventDriven);
  expect_identical(m,
                   run_cfg(c.trace, fabric, cpu, c.scheduler, c.config,
                           sim::EngineMode::kSliceStepped),
                   "event-vs-slice");
  EXPECT_EQ(m.slo.admitted, 1u);
  EXPECT_EQ(m.slo.shed_midflight, 1u);
  ASSERT_EQ(m.coflows.size(), 3u);
  EXPECT_TRUE(m.coflows[0].rejected);
  EXPECT_FALSE(m.coflows[0].completed());
  EXPECT_EQ(m.deadlines_met(), 0u);
  // FVDF served the shorter coflow 1 first, on the whole port.
  ASSERT_TRUE(m.coflows[1].completed());
  EXPECT_NEAR(m.coflows[1].completion,
              c.trace.coflows[1].total_bytes() / shed_idle::kBandwidth,
              1e-9);
  // Coflow 0 got the port from t = 0.42 until the shed at its 0.5 s
  // deadline (a slice boundary), not to its natural completion at 0.86 s:
  // 0.08 s of its bytes went out and the other 0.36 s were dropped.
  EXPECT_NEAR(m.coflows[0].wire_bytes, shed_idle::kBandwidth * 0.08, 1.0);
  EXPECT_NEAR(m.slo.shed_bytes, shed_idle::kBandwidth * 0.36, 1.0);
  // The later arrival has the fabric to itself.
  ASSERT_TRUE(m.coflows[2].completed());
  EXPECT_NEAR(m.coflows[2].completion - m.coflows[2].arrival,
              c.trace.coflows[2].total_bytes() / shed_idle::kBandwidth,
              1e-9);
}

TEST(SloBehavior, RepriceShedOfTheLastActiveCoflowIdlesToTheNextArrival) {
  // A capacity-change re-price sheds the last active coflow while another
  // is still to arrive (the case's comment gives the timeline).
  const shed_idle::Case c = shed_idle::reprice_shed();
  const fabric::Fabric fabric(2, shed_idle::kBandwidth);
  const cpu::ConstantCpu cpu(0.9);
  fabric::DegradationSchedule schedule(c.config.degradation, 2);
  const common::Seconds first_change = schedule.next_change_after(0.0);
  ASSERT_GT(first_change, 0.3);  // coflow 1 has completed
  ASSERT_LT(first_change, 1.2);  // coflow 0's deadline
  const auto m = run_cfg(c.trace, fabric, cpu, c.scheduler, c.config,
                         sim::EngineMode::kEventDriven);
  expect_identical(m,
                   run_cfg(c.trace, fabric, cpu, c.scheduler, c.config,
                           sim::EngineMode::kSliceStepped),
                   "event-vs-slice");
  EXPECT_EQ(m.slo.admitted, 1u);
  EXPECT_EQ(m.slo.repriced_shed, 1u);
  EXPECT_EQ(m.slo.shed_midflight, 1u);
  ASSERT_EQ(m.coflows.size(), 3u);
  EXPECT_TRUE(m.coflows[0].rejected);
  EXPECT_LT(m.coflows[0].wire_bytes,
            c.trace.coflows[0].total_bytes() * 0.5);
  EXPECT_TRUE(m.coflows[1].completed());
  ASSERT_TRUE(m.coflows[2].completed());
  EXPECT_NEAR(m.coflows[2].completion - m.coflows[2].arrival,
              c.trace.coflows[2].total_bytes() / shed_idle::kBandwidth,
              1e-9);
}

TEST(SloBehavior, MetFractionUnderDegradationAtLeastFvdf) {
  // The fault-fallback contract (DESIGN.md section 12): on a degrading
  // fabric the deadline scheduler must not trail blind FVDF on met
  // fraction. Historically it did — EDF pacing stretched feasible coflows
  // across slack the next brownout erased, and band-3 parking starved
  // transiently infeasible coflows FVDF kept serving. The sticky FVDF
  // fallback plus capacity-change re-pricing closes the gap; expiry
  // shedding can only free capacity FVDF wastes on already-missed work.
  workload::GeneratorConfig gen;
  gen.num_ports = 16;
  gen.num_coflows = 60;
  gen.mean_interarrival = 0.5;
  gen.size_lo = 1e5;
  gen.size_hi = 1e9;
  gen.size_alpha = 0.15;
  gen.width_lo = 1;
  gen.width_hi = 6;
  gen.seed = 2;
  gen.deadline_fraction = 0.7;
  gen.deadline_ref_bandwidth = common::mbps(100);
  gen.deadline_slack_lo = 1.4;
  gen.deadline_slack_hi = 3.0;
  const workload::Trace trace = workload::generate_trace(gen);
  const fabric::Fabric fabric(16, common::mbps(100));
  const cpu::ConstantCpu cpu(0.9);
  for (const double rate : {0.1, 0.2}) {
    sim::SimConfig config;
    config.codec = &codec::default_codec_model();
    config.max_time = 72000.0;
    config.degradation.rate = rate;
    config.degradation.seed = 19;
    config.degradation.failure_fraction = 0.25;
    const auto fvdf = run_cfg(trace, fabric, cpu, "FVDF", config,
                              sim::EngineMode::kEventDriven);
    config.admission.enabled = true;
    const auto dfvdf = run_cfg(trace, fabric, cpu, "DEADLINE-FVDF", config,
                               sim::EngineMode::kEventDriven);
    EXPECT_GE(dfvdf.deadline_met_fraction(), fvdf.deadline_met_fraction())
        << "degradation rate=" << rate;
  }
}

TEST(SloBehavior, DegradationRecheckRecoversDeferred) {
  // Under degradation + admission the run must terminate with coherent
  // accounting (deferred coflows either finish, expire or are shed; nothing
  // wedges the engine), across both engine modes.
  const workload::Trace trace = deadline_trace(47, 20, 8, 0.7, 0.2);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(150));
  const cpu::ConstantCpu cpu(0.85);
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();
  config.admission.enabled = true;
  config.degradation.rate = 0.2;
  config.degradation.seed = 5;
  config.degradation.failure_fraction = 0.4;
  config.max_time = 72000.0;
  const auto m = run_cfg(trace, fabric, cpu, "DEADLINE-FVDF", config,
                         sim::EngineMode::kEventDriven);
  EXPECT_EQ(m.slo.with_deadline,
            m.slo.admitted + m.slo.degraded + m.slo.deferred + m.slo.rejected);
  std::size_t resolved = 0;
  for (const auto& c : m.coflows)
    if (c.completed() || c.rejected) ++resolved;
  EXPECT_EQ(resolved, m.coflows.size());
}

}  // namespace
