// Tests for the extension features: the Facebook-trace parser, the
// normalized-CCT lower bound, receiver-side decompression modeling, and
// Aalo running end to end in the simulator.
#include <gtest/gtest.h>

#include <sstream>

#include "core/fvdf.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "workload/apps.hpp"

namespace swallow {
namespace {

// ---- Facebook coflow-benchmark format. ----

constexpr const char* kFbSample =
    "4 2\n"
    "1 0 2 1 3 2 2:10 4:5\n"
    "2 1500 1 4 1 1:2\n";

TEST(FacebookTrace, ParsesJobsMappersReducers) {
  std::istringstream in(kFbSample);
  const workload::Trace trace = workload::parse_facebook_trace(in);
  EXPECT_EQ(trace.num_ports, 4u);
  ASSERT_EQ(trace.coflows.size(), 2u);

  const auto& job1 = trace.coflows[0];
  EXPECT_EQ(job1.id, 1u);
  EXPECT_DOUBLE_EQ(job1.arrival, 0.0);
  // 2 mappers x 2 reducers = 4 flows.
  ASSERT_EQ(job1.flows.size(), 4u);
  // Reducer on rack 2 gets 10 MB split over 2 mappers = 5 MB per flow.
  EXPECT_DOUBLE_EQ(job1.flows[0].bytes, 5.0 * common::kMB);
  EXPECT_EQ(job1.flows[0].src, 0u);  // rack 1 -> port 0
  EXPECT_EQ(job1.flows[0].dst, 1u);  // rack 2 -> port 1
  EXPECT_EQ(job1.flows[1].src, 2u);  // rack 3 -> port 2
  // Reducer on rack 4 gets 5 MB -> 2.5 MB per flow.
  EXPECT_DOUBLE_EQ(job1.flows[2].bytes, 2.5 * common::kMB);
  EXPECT_EQ(job1.flows[2].dst, 3u);

  const auto& job2 = trace.coflows[1];
  EXPECT_DOUBLE_EQ(job2.arrival, 1.5);
  ASSERT_EQ(job2.flows.size(), 1u);
  EXPECT_DOUBLE_EQ(job2.flows[0].bytes, 2.0 * common::kMB);
}

TEST(FacebookTrace, RejectsMalformedInput) {
  const auto expect_bad = [](const std::string& text) {
    std::istringstream in(text);
    EXPECT_THROW(workload::parse_facebook_trace(in), std::runtime_error)
        << text;
  };
  expect_bad("");
  expect_bad("0 1\n");
  expect_bad("4 1\n1 0 0\n");                  // zero mappers
  expect_bad("4 1\n1 0 1 9 1 1:5\n");          // rack out of range
  expect_bad("4 1\n1 0 1 1 0\n");              // zero reducers
  expect_bad("4 1\n1 0 1 1 1 2-5\n");          // missing ':'
  expect_bad("4 1\n1 0 1 1 1 2:0\n");          // zero bytes
  expect_bad("4 1\n1 0 2 1\n");                // truncated mapper list
  EXPECT_THROW(workload::parse_facebook_trace_file("/missing.txt"),
               std::runtime_error);
}

TEST(FacebookTrace, ReplaysThroughTheSimulator) {
  std::istringstream in(kFbSample);
  const workload::Trace trace = workload::parse_facebook_trace(in);
  const fabric::Fabric fabric(4, common::mbps(100));
  const cpu::ConstantCpu cpu(0.9);
  auto sched = sim::make_scheduler("FVDF");
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();
  const sim::Metrics m = sim::run_simulation(trace, fabric, cpu, *sched, config);
  EXPECT_EQ(m.flows.size(), 5u);
  EXPECT_GT(m.traffic_reduction(), 0.3);
}

// ---- Normalized CCT. ----

TEST(NormalizedCct, IsolationBoundIsLowerBound) {
  workload::GeneratorConfig gen;
  gen.num_ports = 8;
  gen.num_coflows = 25;
  gen.size_lo = 1e6;
  gen.size_hi = 1e8;
  gen.width_hi = 4;
  gen.seed = 77;
  const workload::Trace trace = workload::generate_trace(gen);
  const fabric::Fabric fabric(8, common::mbps(500));
  const cpu::ConstantCpu cpu(0.0);
  for (const char* name : {"SEBF", "FVDF-NC", "FIFO", "AALO"}) {
    auto sched = sim::make_scheduler(name);
    const sim::Metrics m =
        sim::run_simulation(trace, fabric, cpu, *sched, {});
    for (const auto& c : m.coflows) {
      ASSERT_GT(c.isolation_bound, 0.0) << name;
      // No scheduler can beat the isolation bound (slice granularity slack).
      EXPECT_GE(c.cct(), c.isolation_bound * 0.999 - 0.02) << name;
    }
    EXPECT_GE(m.avg_normalized_cct(), 0.99) << name;
  }
}

TEST(NormalizedCct, LoneCoflowRunsAtTheBound) {
  workload::Trace trace;
  trace.num_ports = 2;
  workload::CoflowSpec c;
  c.id = 1;
  c.flows = {{0, 1, 1000.0, false, 0}};
  trace.coflows = {c};
  const fabric::Fabric fabric(2, 10.0);
  const cpu::ConstantCpu cpu(0.0);
  auto sched = sim::make_scheduler("SEBF");
  const sim::Metrics m = sim::run_simulation(trace, fabric, cpu, *sched, {});
  EXPECT_NEAR(m.coflows[0].isolation_bound, 100.0, 1e-9);
  EXPECT_NEAR(m.avg_normalized_cct(), 1.0, 1e-3);
}

// ---- Decompression modeling. ----

TEST(Decompression, AddsReceiverCostWhenEnabled) {
  workload::Trace trace;
  trace.num_ports = 2;
  workload::CoflowSpec c;
  c.id = 1;
  c.flows = {{0, 1, 1000.0, true, 0}};
  trace.coflows = {c};
  const fabric::Fabric fabric(2, 1.0);
  const cpu::ConstantCpu cpu(1.0);
  // R = 100, xi = 0.5, decompression at 50 B/s (artificially slow).
  const codec::CodecModel codec{"slow-decode", 100.0, 50.0, 0.5};

  auto run = [&](bool model) {
    auto sched = sim::make_scheduler("FVDF");
    sim::SimConfig config;
    config.codec = &codec;
    config.model_decompression = model;
    return sim::run_simulation(trace, fabric, cpu, *sched, config);
  };
  const double without = run(false).flows[0].fct();
  const double with = run(true).flows[0].fct();
  // 500 compressed bytes at 50 B/s = 10 extra seconds.
  EXPECT_NEAR(with - without, 10.0, 0.1);
}

TEST(Decompression, NoCostWithoutCompressedBytes) {
  workload::Trace trace;
  trace.num_ports = 2;
  workload::CoflowSpec c;
  c.id = 1;
  c.flows = {{0, 1, 1000.0, false, 0}};  // incompressible
  trace.coflows = {c};
  const fabric::Fabric fabric(2, 10.0);
  const cpu::ConstantCpu cpu(1.0);
  const codec::CodecModel codec{"slow-decode", 100.0, 50.0, 0.5};
  auto sched = sim::make_scheduler("FVDF");
  sim::SimConfig config;
  config.codec = &codec;
  config.model_decompression = true;
  const sim::Metrics m = sim::run_simulation(trace, fabric, cpu, *sched, config);
  EXPECT_NEAR(m.flows[0].fct(), 100.0, 0.1);
}

TEST(Decompression, PaperOmissionIsJustifiedForTable2Codecs) {
  // The paper drops decompression cost because decode speed dwarfs the
  // link: for every Table II codec at 100 Mbps the added CCT is < 2%.
  workload::GeneratorConfig gen;
  gen.num_ports = 8;
  gen.num_coflows = 15;
  gen.size_lo = 1e6;
  gen.size_hi = 1e8;
  gen.width_hi = 3;
  gen.seed = 5;
  const workload::Trace trace = workload::generate_trace(gen);
  const fabric::Fabric fabric(8, common::mbps(100));
  const cpu::ConstantCpu cpu(0.9);
  for (const auto& model : codec::table2_codecs()) {
    auto run = [&](bool decode_cost) {
      auto sched = sim::make_scheduler("FVDF");
      sim::SimConfig config;
      config.codec = &model;
      config.model_decompression = decode_cost;
      return sim::run_simulation(trace, fabric, cpu, *sched, config)
          .avg_cct();
    };
    const double base = run(false);
    EXPECT_LT(run(true) / base, 1.02) << model.name;
  }
}

// ---- CSV export. ----

TEST(Report, CsvColumnsAndRowCounts) {
  workload::Trace trace;
  trace.num_ports = 2;
  workload::CoflowSpec c;
  c.id = 3;
  c.job = 9;
  c.flows = {{0, 1, 100.0, false, 0}, {1, 0, 50.0, false, 0}};
  trace.coflows = {c};
  const fabric::Fabric fabric(2, 10.0);
  const cpu::ConstantCpu cpu(0.0);
  auto sched = sim::make_scheduler("SEBF");
  sim::SimConfig config;
  config.utilization_sample_period = 1.0;
  const sim::Metrics m = sim::run_simulation(trace, fabric, cpu, *sched, config);

  std::ostringstream flows;
  sim::write_flows_csv(flows, m);
  std::istringstream flow_lines(flows.str());
  std::string line;
  std::getline(flow_lines, line);
  EXPECT_EQ(line,
            "flow_id,coflow_id,job_id,original_bytes,wire_bytes,arrival,"
            "completion,fct");
  std::size_t rows = 0;
  while (std::getline(flow_lines, line)) ++rows;
  EXPECT_EQ(rows, 2u);

  std::ostringstream coflows;
  sim::write_coflows_csv(coflows, m);
  EXPECT_NE(coflows.str().find("normalized_cct"), std::string::npos);
  EXPECT_NE(coflows.str().find("\n3,9,2,"), std::string::npos);

  std::ostringstream util;
  sim::write_utilization_csv(util, m);
  EXPECT_NE(util.str().find("t,egress_utilization"), std::string::npos);
  std::istringstream util_lines(util.str());
  rows = 0;
  while (std::getline(util_lines, line)) ++rows;
  EXPECT_GE(rows, 2u);  // header + at least one sample (makespan 10 s)
}

// ---- Per-flow compression ratios. ----

TEST(PerFlowRatio, EngineHonoursFlowSpecificRatio) {
  workload::Trace trace;
  trace.num_ports = 4;
  for (int i = 0; i < 2; ++i) {
    workload::CoflowSpec c;
    c.id = static_cast<fabric::CoflowId>(i);
    c.job = i;
    workload::FlowSpec f;
    f.src = static_cast<fabric::PortId>(i);
    f.dst = static_cast<fabric::PortId>(i + 2);
    f.bytes = 1000.0;
    f.compress_ratio = i == 0 ? 0.2 : 0.8;  // app-specific ratios
    c.flows = {f};
    trace.coflows.push_back(c);
  }
  const fabric::Fabric fabric(4, 1.0);  // compression clearly wins
  const cpu::ConstantCpu cpu(1.0);
  auto sched = sim::make_scheduler("FVDF");
  sim::SimConfig config;
  const codec::CodecModel codec{"t", 1000.0, 4000.0, 0.5};
  config.codec = &codec;
  const sim::Metrics m = sim::run_simulation(trace, fabric, cpu, *sched, config);
  ASSERT_EQ(m.flows.size(), 2u);
  EXPECT_NEAR(m.flows[0].wire_bytes, 200.0, 1.0);
  EXPECT_NEAR(m.flows[1].wire_bytes, 800.0, 1.0);
}

TEST(PerFlowRatio, Eq3GateUsesFlowRatio) {
  // The codec model's own ratio would open the gate, but this flow barely
  // compresses: the per-flow ratio must close Eq. 3 for it.
  const fabric::Fabric fabric(2, 100.0);
  const cpu::ConstantCpu cpu(1.0);
  const codec::CodecModel codec{"t", 1000.0, 4000.0, 0.5};  // 500 > 100
  fabric::Flow f;
  f.id = 0;
  f.src = 0;
  f.dst = 1;
  f.raw_remaining = 1000;
  f.compress_ratio = 0.95;  // 1000 * 0.05 = 50 < 100: not worth it
  const core::EvalEnv env{&fabric, &cpu, &codec, 0.0, common::kDefaultSlice};
  EXPECT_FALSE(core::evaluate_flow(env, f, false).beta);
  f.compress_ratio = 0.5;
  EXPECT_TRUE(core::evaluate_flow(env, f, false).beta);
}

TEST(PerFlowRatio, HibenchTraceCompressesAtTableOneMix) {
  // The simulated HiBench suite is Terasort/Sort-dominated (ratio ~ 0.27),
  // so the traffic reduction must land near 1 - 0.27, far beyond what the
  // global LZ4 model (1 - 0.62) could produce.
  const workload::Trace trace =
      workload::hibench_trace(2 * common::kGB, 2, 12, 0.5, 7);
  const fabric::Fabric fabric(12, common::mbps(100));
  const cpu::ConstantCpu cpu(0.9);
  auto sched = sim::make_scheduler("FVDF");
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();
  const sim::Metrics m = sim::run_simulation(trace, fabric, cpu, *sched, config);
  EXPECT_GT(m.traffic_reduction(), 0.55);
  EXPECT_LT(m.traffic_reduction(), 0.80);
}

// ---- Aalo end to end. ----

TEST(AaloSim, CompletesAndSitsBetweenFifoAndSebf) {
  workload::GeneratorConfig gen;
  gen.num_ports = 10;
  gen.num_coflows = 30;
  gen.size_lo = 1e5;
  gen.size_hi = 1e9;
  gen.size_alpha = 0.15;
  gen.width_hi = 5;
  gen.seed = 13;
  const workload::Trace trace = workload::generate_trace(gen);
  const fabric::Fabric fabric(10, common::mbps(100));
  const cpu::ConstantCpu cpu(0.0);

  auto run = [&](const char* name) {
    auto sched = sim::make_scheduler(name);
    return sim::run_simulation(trace, fabric, cpu, *sched, {});
  };
  const sim::Metrics aalo = run("AALO");
  EXPECT_EQ(aalo.flows.size(), trace.total_flows());
  // Info-agnostic Aalo cannot beat clairvoyant SEBF but must crush FIFO.
  EXPECT_LT(aalo.avg_cct(), run("FIFO").avg_cct());
  EXPECT_GT(aalo.avg_cct(), run("SEBF").avg_cct() * 0.9);
}

}  // namespace
}  // namespace swallow
