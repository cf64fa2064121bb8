// A/B byte-identity between the event-driven and slice-stepped engines.
//
// The event-driven engine fast-forwards across eventless slice boundaries;
// its contract (DESIGN.md section 10) is that Metrics are byte-identical to
// the slice-stepped reference — same FP bit patterns, not "close". Both
// modes evaluate the same canonical per-segment formulas at the same fold
// points, so these tests compare with exact equality across every scheduler
// the registry knows, with quantized completions, degradation, utilization
// sampling and decompression modeling both on and off, and under every CPU
// provider. Also covers run_batch: a parallel sweep must return exactly the
// serial sweep's results.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cpu/cpu_model.hpp"
#include "sim/experiment.hpp"
#include "sim/run_batch.hpp"

namespace {

using namespace swallow;

workload::Trace small_trace(std::uint64_t seed, std::size_t coflows = 14,
                            std::size_t ports = 10) {
  workload::GeneratorConfig gen;
  gen.num_ports = ports;
  gen.num_coflows = coflows;
  gen.mean_interarrival = 0.4;
  gen.size_lo = 1e5;
  gen.size_hi = 2e8;
  gen.size_alpha = 0.2;
  gen.width_lo = 1;
  gen.width_hi = 4;
  gen.seed = seed;
  return workload::generate_trace(gen);
}

sim::Metrics run_mode(const workload::Trace& trace,
                      const fabric::Fabric& fabric,
                      const cpu::CpuProvider& cpu, const std::string& name,
                      sim::SimConfig config, sim::EngineMode mode) {
  config.engine_mode = mode;
  auto sched = sim::make_scheduler(name);  // fresh: schedulers are stateful
  return sim::run_simulation(trace, fabric, cpu, *sched, config);
}

// Exact (bitwise-value) comparison of every record both engines emit.
void expect_identical(const sim::Metrics& a, const sim::Metrics& b,
                      const std::string& label) {
  SCOPED_TRACE(label);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    EXPECT_EQ(a.flows[i].id, b.flows[i].id);
    EXPECT_EQ(a.flows[i].coflow, b.flows[i].coflow);
    EXPECT_EQ(a.flows[i].arrival, b.flows[i].arrival);
    EXPECT_EQ(a.flows[i].completion, b.flows[i].completion) << "flow " << i;
    EXPECT_EQ(a.flows[i].wire_bytes, b.flows[i].wire_bytes) << "flow " << i;
    EXPECT_EQ(a.flows[i].original_bytes, b.flows[i].original_bytes);
  }
  ASSERT_EQ(a.coflows.size(), b.coflows.size());
  for (std::size_t i = 0; i < a.coflows.size(); ++i) {
    EXPECT_EQ(a.coflows[i].id, b.coflows[i].id);
    EXPECT_EQ(a.coflows[i].completion, b.coflows[i].completion)
        << "coflow " << i;
    EXPECT_EQ(a.coflows[i].wire_bytes, b.coflows[i].wire_bytes)
        << "coflow " << i;
    EXPECT_EQ(a.coflows[i].isolation_bound, b.coflows[i].isolation_bound);
  }
  ASSERT_EQ(a.utilization.size(), b.utilization.size());
  for (std::size_t i = 0; i < a.utilization.size(); ++i) {
    EXPECT_EQ(a.utilization[i].t, b.utilization[i].t) << "sample " << i;
    EXPECT_EQ(a.utilization[i].egress_utilization,
              b.utilization[i].egress_utilization)
        << "sample " << i;
  }
  EXPECT_EQ(a.degradation.capacity_changes, b.degradation.capacity_changes);
  EXPECT_EQ(a.degradation.link_failures, b.degradation.link_failures);
  EXPECT_EQ(a.degradation.stalled_flow_slices,
            b.degradation.stalled_flow_slices);
  EXPECT_EQ(a.degradation.compression_flips,
            b.degradation.compression_flips);
}

void expect_parity(const workload::Trace& trace, const fabric::Fabric& fabric,
                   const cpu::CpuProvider& cpu, const std::string& name,
                   const sim::SimConfig& config, const std::string& label) {
  const sim::Metrics ev = run_mode(trace, fabric, cpu, name, config,
                                   sim::EngineMode::kEventDriven);
  const sim::Metrics sl = run_mode(trace, fabric, cpu, name, config,
                                   sim::EngineMode::kSliceStepped);
  expect_identical(ev, sl, label);
}

TEST(EngineParity, AllSchedulersConstantCpu) {
  const workload::Trace trace = small_trace(5);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(200));
  const cpu::ConstantCpu cpu(0.9);
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();

  // Every scheduler but the NOUPGRADE and NOBACKFILL ablations.
  for (const std::string& name : sim::scheduler_names())
    if (name != "FVDF-NOUPGRADE" && name != "FVDF-NOBACKFILL")
      expect_parity(trace, fabric, cpu, name, config, name);
}

TEST(EngineParity, QuantizeAndDegradationGrid) {
  const workload::Trace trace = small_trace(7);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(150));
  const cpu::ConstantCpu cpu(0.8);
  for (const bool quantize : {false, true}) {
    for (const bool degrade : {false, true}) {
      sim::SimConfig config;
      config.codec = &codec::default_codec_model();
      config.quantize_completions = quantize;
      config.utilization_sample_period = 0.25;
      config.max_time = 36000.0;
      if (degrade) {
        config.degradation.rate = 0.1;
        config.degradation.seed = 11;
        config.degradation.failure_fraction = 0.25;
      }
      const std::string label = std::string("quantize=") +
                                (quantize ? "1" : "0") +
                                " degrade=" + (degrade ? "1" : "0");
      expect_parity(trace, fabric, cpu, "FVDF", config, "FVDF " + label);
      expect_parity(trace, fabric, cpu, "SEBF", config, "SEBF " + label);
    }
  }
}

TEST(EngineParity, DecompressionModeling) {
  const workload::Trace trace = small_trace(9);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(120));
  const cpu::ConstantCpu cpu(0.95);
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();
  config.model_decompression = true;
  expect_parity(trace, fabric, cpu, "FVDF", config, "decompression");
}

TEST(EngineParity, WindowedCpu) {
  const workload::Trace trace = small_trace(3, 10);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(100));
  // Alternating idle/busy windows: exercises both the constant-headroom
  // fast path and the promise-expiry folds (including busy gaps where
  // assigned compression stalls and forces per-slice rescheduling).
  const cpu::WindowedCpu cpu({{0.0, 1.0}, {2.0, 3.5}, {5.0, 9.0}}, 0.9, 0.0);
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();
  config.utilization_sample_period = 0.5;
  expect_parity(trace, fabric, cpu, "FVDF", config, "windowed cpu");
}

TEST(EngineParity, BurstyCpu) {
  const workload::Trace trace = small_trace(4, 8);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(100));
  cpu::BurstyCpu::Config bc;
  bc.nodes = 8;
  bc.idle_fraction = 0.5;
  bc.mean_burst = 0.5;
  bc.seed = 21;
  const cpu::BurstyCpu cpu(bc);
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();
  expect_parity(trace, fabric, cpu, "FVDF", config, "bursty cpu");
}

TEST(EngineParity, DeadlockDetectedInBothModes) {
  // A scheduler that never allocates deadlocks the run; both modes must
  // notice after the same simulated stall budget.
  class LazyScheduler final : public sched::Scheduler {
   public:
    std::string name() const override { return "LAZY"; }
    fabric::Allocation schedule(const sched::SchedContext&) override {
      return {};
    }
  };
  const workload::Trace trace = small_trace(2, 6);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(100));
  const cpu::ConstantCpu cpu(0.5);
  for (const sim::EngineMode mode :
       {sim::EngineMode::kEventDriven, sim::EngineMode::kSliceStepped}) {
    sim::SimConfig config;
    config.engine_mode = mode;
    LazyScheduler lazy;
    EXPECT_THROW(sim::run_simulation(trace, fabric, cpu, lazy, config),
                 sim::SimError);
  }
}

TEST(RunBatch, ParallelMatchesSerial) {
  // One job per seed; parallel execution must return the serial results
  // verbatim (same slots, same bits), even oversubscribed.
  const std::size_t jobs = 8;
  auto job = [&](std::size_t i) {
    const workload::Trace trace =
        small_trace(sim::batch_seed(42, i) % 1000, 8, 8);
    const fabric::Fabric fabric(trace.num_ports, common::mbps(100));
    const cpu::ConstantCpu cpu(0.9);
    sim::SimConfig config;
    config.codec = &codec::default_codec_model();
    auto sched = sim::make_scheduler("FVDF");
    const sim::Metrics m =
        sim::run_simulation(trace, fabric, cpu, *sched, config);
    return std::pair<double, double>(m.avg_cct(), m.total_wire_bytes());
  };
  sim::BatchOptions serial;
  serial.threads = 1;
  sim::BatchOptions parallel;
  parallel.threads = 8;
  const auto a = sim::run_batch(jobs, job, serial);
  const auto b = sim::run_batch(jobs, job, parallel);
  ASSERT_EQ(a.size(), jobs);
  ASSERT_EQ(b.size(), jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    EXPECT_EQ(a[i].first, b[i].first) << "job " << i;
    EXPECT_EQ(a[i].second, b[i].second) << "job " << i;
  }
}

TEST(RunBatch, PropagatesExceptions) {
  sim::BatchOptions parallel;
  parallel.threads = 4;
  EXPECT_THROW(sim::run_batch(
                   16,
                   [](std::size_t i) {
                     if (i == 11) throw std::runtime_error("boom");
                     return i;
                   },
                   parallel),
               std::runtime_error);
}

TEST(RunBatch, SeedsAreStableAndDistinct) {
  // batch_seed must not depend on anything but (base, index).
  EXPECT_EQ(sim::batch_seed(1, 0), sim::batch_seed(1, 0));
  EXPECT_NE(sim::batch_seed(1, 0), sim::batch_seed(1, 1));
  EXPECT_NE(sim::batch_seed(1, 0), sim::batch_seed(2, 0));
  // Pinned: every benchmark trace and shuffle payload derives from
  // batch_seed, so a drift would silently change every workload's inputs.
  EXPECT_EQ(sim::batch_seed(1, 0), 0x910a2dec89025cc1ull);
  EXPECT_EQ(sim::batch_seed(7, 63), 0x66cd25813e9b65b8ull);
  EXPECT_EQ(sim::batch_seed(~0ull, 1000), 0xb758f7144a7e200aull);  // wraps
}

}  // namespace
