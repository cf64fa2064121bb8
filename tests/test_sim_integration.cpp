// Trace-driven integration tests: the paper's headline qualitative claims
// must hold on synthetic workloads — FVDF beats the baselines on CCT at low
// bandwidth, matches its no-compression self at 10 Gbps, reduces traffic by
// about (1 - xi), and the priority upgrade prevents starvation.
#include <gtest/gtest.h>

#include <string_view>

#include "obs/trace.hpp"
#include "sim/experiment.hpp"

namespace swallow::sim {
namespace {

using common::gbps;
using common::mbps;

workload::Trace small_trace(std::uint64_t seed, std::size_t coflows = 30) {
  workload::GeneratorConfig gen;
  gen.num_ports = 10;
  gen.num_coflows = coflows;
  gen.mean_interarrival = 0.5;
  gen.size_lo = 1e6;
  gen.size_hi = 1e9;
  gen.size_alpha = 0.3;
  gen.width_lo = 1;
  gen.width_hi = 5;
  gen.seed = seed;
  return workload::generate_trace(gen);
}

class SimIntegration : public ::testing::Test {
 protected:
  SimIntegration() : trace_(small_trace(21)), cpu_(0.9) {}

  Metrics run(const std::string& name, common::Bps bandwidth,
              bool with_codec = true) {
    const fabric::Fabric fabric(10, bandwidth);
    auto sched = make_scheduler(name);
    SimConfig config;
    if (with_codec) config.codec = &codec::default_codec_model();
    return run_simulation(trace_, fabric, cpu_, *sched, config);
  }

  workload::Trace trace_;
  cpu::ConstantCpu cpu_;
};

TEST_F(SimIntegration, FvdfBeatsBaselinesOnCctAtLowBandwidth) {
  const double fvdf = run("FVDF", mbps(100)).avg_cct();
  for (const char* name : {"SEBF", "FIFO", "PFF", "WSS"}) {
    const double base = run(name, mbps(100)).avg_cct();
    EXPECT_LT(fvdf, base) << name;
  }
}

TEST_F(SimIntegration, FvdfSpeedupOverSebfInPaperBand) {
  // Paper Fig. 6(e): up to 1.62x at 100 Mbps, compression-ratio bound
  // ~1/xi = 1.61 for LZ4. Accept a generous band.
  const double speedup =
      run("SEBF", mbps(100)).avg_cct() / run("FVDF", mbps(100)).avg_cct();
  EXPECT_GT(speedup, 1.2);
  EXPECT_LT(speedup, 1.9);
}

TEST_F(SimIntegration, CompressionDisabledAtTenGbps) {
  // Eq. 3 gate closes: FVDF must behave exactly like FVDF-NC.
  const Metrics with_codec = run("FVDF", gbps(10));
  const Metrics without = run("FVDF-NC", gbps(10));
  EXPECT_NEAR(with_codec.avg_cct(), without.avg_cct(), 1e-9);
  EXPECT_NEAR(with_codec.traffic_reduction(), 0.0, 1e-9);
}

TEST_F(SimIntegration, TrafficReductionTracksCompressionRatio) {
  // At 100 Mbps everything compressible is compressed: reduction ~
  // (1 - xi) * compressible_share. xi = 0.6215, share ~ 0.95.
  const Metrics m = run("FVDF", mbps(100));
  EXPECT_GT(m.traffic_reduction(), 0.25);
  EXPECT_LT(m.traffic_reduction(), 1.0 - 0.6215 + 0.03);
}

TEST_F(SimIntegration, BaselinesNeverReduceTraffic) {
  for (const char* name : {"SEBF", "FIFO", "PFP", "SCF"}) {
    const Metrics m = run(name, mbps(100));
    EXPECT_NEAR(m.traffic_reduction(), 0.0, 1e-9) << name;
  }
}

TEST_F(SimIntegration, FvdfImprovesAvgFctOverFifoAndFair) {
  // Fig. 6(a): FVDF accelerates average FCT over FIFO and FAIR. FIFO loses
  // on every trace; FAIR is close on individual seeds (fair sharing is a
  // strong flow-level baseline), so the claim is asserted in aggregate.
  const double fvdf = run("FVDF", mbps(100)).avg_fct();
  EXPECT_LT(fvdf, run("FIFO", mbps(100)).avg_fct());

  double fvdf_sum = 0, fair_sum = 0;
  for (const std::uint64_t seed : {21ull, 7ull, 99ull}) {
    const workload::Trace trace = small_trace(seed);
    const fabric::Fabric fabric(10, mbps(100));
    SimConfig config;
    config.codec = &codec::default_codec_model();
    auto fvdf_sched = make_scheduler("FVDF");
    auto fair_sched = make_scheduler("FAIR");
    fvdf_sum += run_simulation(trace, fabric, cpu_, *fvdf_sched, config)
                    .avg_fct();
    fair_sum += run_simulation(trace, fabric, cpu_, *fair_sched, config)
                    .avg_fct();
  }
  EXPECT_LT(fvdf_sum, fair_sum);
}

TEST_F(SimIntegration, EverySchedulerCompletesEveryFlow) {
  for (const char* name :
       {"FVDF", "FVDF-NC", "SEBF", "FIFO", "PFF", "WSS", "PFP", "SCF", "NCF",
        "LCF"}) {
    const Metrics m = run(name, gbps(1));
    EXPECT_EQ(m.flows.size(), trace_.total_flows()) << name;
    for (const auto& f : m.flows) {
      EXPECT_GT(f.completion, 0.0) << name;
      EXPECT_GE(f.fct(), -1e-9) << name;
    }
  }
}

TEST_F(SimIntegration, TracerObservesExactlyWhatMetricsRecord) {
  // The tracer rides along the same code paths Metrics does; its lifecycle
  // event counts must agree exactly — no phantom or missing events.
  obs::Tracer tracer;
  const fabric::Fabric fabric(10, mbps(100));
  auto sched = make_scheduler("FVDF");
  SimConfig config;
  config.codec = &codec::default_codec_model();
  config.sink = &tracer;
  const Metrics m = run_simulation(trace_, fabric, cpu_, *sched, config);

  std::size_t arrivals = 0, coflow_completions = 0, flow_completions = 0;
  for (const obs::TraceEvent& ev : tracer.events()) {
    const std::string_view name = ev.name;
    if (name == "coflow_arrival") ++arrivals;
    if (name == "coflow_complete") ++coflow_completions;
    if (name == "flow_complete") ++flow_completions;
  }
  EXPECT_EQ(arrivals, m.coflows.size());
  EXPECT_EQ(coflow_completions, m.coflows.size());
  EXPECT_EQ(flow_completions, m.flows.size());

  // An identical run with no sink attached must produce identical results:
  // instrumentation is observation, never perturbation.
  auto sched2 = make_scheduler("FVDF");
  SimConfig quiet = config;
  quiet.sink = nullptr;
  const Metrics m2 = run_simulation(trace_, fabric, cpu_, *sched2, quiet);
  EXPECT_DOUBLE_EQ(m.avg_cct(), m2.avg_cct());
  EXPECT_DOUBLE_EQ(m.traffic_reduction(), m2.traffic_reduction());
}

TEST(Starvation, UpgradeBoundsLargeCoflowWait) {
  // One large coflow at t=0, then a stream of small coflows on the same
  // ports. Without the priority upgrade FVDF keeps preempting the large
  // coflow; with it the large coflow finishes much earlier.
  workload::Trace t;
  t.num_ports = 2;
  workload::CoflowSpec big;
  big.id = 0;
  big.job = 0;
  big.arrival = 0;
  big.flows = {{0, 1, 5e7, false, 0}};
  t.coflows.push_back(big);
  for (int i = 1; i <= 120; ++i) {
    workload::CoflowSpec small;
    small.id = static_cast<fabric::CoflowId>(i);
    small.job = i;
    small.arrival = 0.2 * i;
    small.flows = {{0, 1, 4e6, false, 0}};
    t.coflows.push_back(small);
  }
  const fabric::Fabric fabric(2, common::mbps(200));
  const cpu::ConstantCpu cpu(0.0);

  auto run_with = [&](const std::string& name) {
    auto sched = make_scheduler(name);
    const Metrics m = run_simulation(t, fabric, cpu, *sched, {});
    return m.coflows.front().cct();  // the large coflow's CCT
  };
  const double with_upgrade = run_with("FVDF-NC");
  const double without = run_with("FVDF-NOUPGRADE");
  EXPECT_LT(with_upgrade, without * 0.8);
}

TEST(Ablation, BackfillNeverSubstantiallyHurtsCct) {
  // Work conservation can reshuffle completion orders slightly, so allow a
  // small regression band; a large one would mean the pass is broken.
  const workload::Trace trace = small_trace(33, 20);
  const fabric::Fabric fabric(10, mbps(500));
  const cpu::ConstantCpu cpu(0.0);
  auto with = make_scheduler("FVDF-NC");
  auto without = make_scheduler("FVDF-NOBACKFILL");
  const Metrics a = run_simulation(trace, fabric, cpu, *with, {});
  const Metrics b = run_simulation(trace, fabric, cpu, *without, {});
  EXPECT_LE(a.avg_cct(), b.avg_cct() * 1.05);
  // It must never hurt the makespan: saturating ports finishes work sooner.
  EXPECT_LE(a.makespan(), b.makespan() * 1.001);
}

}  // namespace
}  // namespace swallow::sim
