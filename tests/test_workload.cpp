// Workload-substrate tests: trace IO (roundtrip + malformed input),
// small-flow filtering, the synthetic generator's Fig. 1 calibration,
// HiBench app suites, job grouping and trace statistics.
#include <gtest/gtest.h>

#include <sstream>

#include "workload/apps.hpp"
#include "workload/generator.hpp"
#include "workload/jobs.hpp"
#include "workload/trace.hpp"
#include "workload/trace_stats.hpp"

namespace swallow::workload {
namespace {

using common::kGB;
using common::kKB;
using common::kMB;

Trace tiny_trace() {
  Trace t;
  t.num_ports = 4;
  CoflowSpec a;
  a.id = 1;
  a.job = 10;
  a.arrival = 0.5;
  a.flows = {{0, 1, 1000, true}, {2, 1, 500, false}};
  CoflowSpec b;
  b.id = 2;
  b.job = 10;
  b.arrival = 0.1;
  b.flows = {{3, 0, 2000, true}};
  t.coflows = {a, b};
  return t;
}

TEST(Trace, AggregatesSizes) {
  const Trace t = tiny_trace();
  EXPECT_EQ(t.total_flows(), 3u);
  EXPECT_DOUBLE_EQ(t.total_bytes(), 3500.0);
  EXPECT_DOUBLE_EQ(t.coflows[0].total_bytes(), 1500.0);
  EXPECT_EQ(t.coflows[0].width(), 2u);
}

TEST(Trace, SortByArrival) {
  Trace t = tiny_trace();
  t.sort_by_arrival();
  EXPECT_EQ(t.coflows[0].id, 2u);
  EXPECT_EQ(t.coflows[1].id, 1u);
}

TEST(TraceIo, RoundtripsThroughText) {
  Trace t = tiny_trace();
  t.sort_by_arrival();
  std::stringstream ss;
  write_trace(ss, t);
  const Trace parsed = parse_trace(ss);
  ASSERT_EQ(parsed.coflows.size(), 2u);
  EXPECT_EQ(parsed.num_ports, 4u);
  EXPECT_EQ(parsed.coflows[0].id, 2u);  // parser sorts by arrival
  EXPECT_NEAR(parsed.coflows[1].arrival, 0.5, 1e-9);
  EXPECT_EQ(parsed.coflows[1].job, 10u);
  ASSERT_EQ(parsed.coflows[1].flows.size(), 2u);
  EXPECT_DOUBLE_EQ(parsed.coflows[1].flows[0].bytes, 1000.0);
  EXPECT_FALSE(parsed.coflows[1].flows[1].compressible);
}

TEST(TraceIo, RejectsMalformedInput) {
  const auto expect_bad = [](const std::string& text) {
    std::istringstream in(text);
    EXPECT_THROW(parse_trace(in), std::runtime_error) << text;
  };
  expect_bad("");                            // missing header
  expect_bad("0 1\n");                       // zero ports
  expect_bad("4 1\n1 0 0\n");                // truncated coflow header
  expect_bad("4 1\n1 0 0 0\n");              // zero flows
  expect_bad("4 1\n1 -5 0 1\n0 1 10 1\n");   // negative arrival
  expect_bad("4 1\n1 0 0 1\n0 9 10 1\n");    // port out of range
  expect_bad("4 1\n1 0 0 1\n0 1 0 1\n");     // zero-size flow
  expect_bad("4 1\n1 0 0 2\n0 1 10 1\n");    // truncated flow list
}

TEST(TraceIo, FileMissingThrows) {
  EXPECT_THROW(parse_trace_file("/nonexistent/trace.txt"),
               std::runtime_error);
}

TEST(FilterSmallestFlows, DropsSmallTail) {
  Trace t;
  t.num_ports = 2;
  for (int i = 0; i < 100; ++i) {
    CoflowSpec c;
    c.id = static_cast<fabric::CoflowId>(i);
    c.arrival = i * 0.01;
    c.flows = {{0, 1, static_cast<common::Bytes>(i + 1), true}};
    t.coflows.push_back(c);
  }
  const Trace kept = filter_smallest_flows(t, 0.95);
  EXPECT_EQ(kept.total_flows(), 95u);
  // Survivors are the largest flows.
  for (const auto& c : kept.coflows)
    for (const auto& f : c.flows) EXPECT_GT(f.bytes, 5.0);
  EXPECT_THROW(filter_smallest_flows(t, 0.0), std::invalid_argument);
  EXPECT_THROW(filter_smallest_flows(t, 1.5), std::invalid_argument);
}

TEST(FilterSmallestFlows, RemovesEmptiedCoflows) {
  const Trace t = tiny_trace();
  const Trace kept = filter_smallest_flows(t, 0.34);  // keep only the 2000
  EXPECT_EQ(kept.total_flows(), 1u);
  EXPECT_EQ(kept.coflows.size(), 1u);
  EXPECT_EQ(kept.coflows[0].id, 2u);
}

TEST(Generator, RespectsStructure) {
  GeneratorConfig config;
  config.num_ports = 10;
  config.num_coflows = 50;
  config.width_lo = 2;
  config.width_hi = 6;
  config.seed = 3;
  const Trace t = generate_trace(config);
  EXPECT_EQ(t.num_ports, 10u);
  EXPECT_EQ(t.coflows.size(), 50u);
  common::Seconds prev = -1;
  for (const auto& c : t.coflows) {
    EXPECT_GE(c.arrival, prev);
    prev = c.arrival;
    EXPECT_GE(c.width(), 2u);
    EXPECT_LE(c.width(), 6u);
    for (const auto& f : c.flows) {
      EXPECT_LT(f.src, 10u);
      EXPECT_LT(f.dst, 10u);
      // The per-coflow base size is in [lo, hi]; each flow adds a mild
      // lognormal partition skew (sigma 0.25 keeps it within ~2.5x).
      EXPECT_GE(f.bytes, config.size_lo / 2.5);
      EXPECT_LE(f.bytes, config.size_hi * 2.5);
    }
  }
}

TEST(Generator, DeterministicForSeed) {
  GeneratorConfig config;
  config.seed = 11;
  const Trace a = generate_trace(config);
  const Trace b = generate_trace(config);
  ASSERT_EQ(a.coflows.size(), b.coflows.size());
  for (std::size_t i = 0; i < a.coflows.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.coflows[i].arrival, b.coflows[i].arrival);
    ASSERT_EQ(a.coflows[i].flows.size(), b.coflows[i].flows.size());
    for (std::size_t j = 0; j < a.coflows[i].flows.size(); ++j)
      EXPECT_DOUBLE_EQ(a.coflows[i].flows[j].bytes,
                       b.coflows[i].flows[j].bytes);
  }
}

TEST(Generator, DistinctSendersWithinCoflow) {
  GeneratorConfig config;
  config.num_ports = 20;
  config.width_lo = 8;
  config.width_hi = 8;
  config.num_coflows = 20;
  const Trace t = generate_trace(config);
  for (const auto& c : t.coflows) {
    std::set<fabric::PortId> srcs;
    for (const auto& f : c.flows) srcs.insert(f.src);
    EXPECT_EQ(srcs.size(), c.flows.size());
  }
}

TEST(Generator, RejectsBadConfig) {
  GeneratorConfig config;
  config.width_lo = 0;
  EXPECT_THROW(generate_trace(config), std::invalid_argument);
  config.width_lo = 5;
  config.width_hi = 3;
  EXPECT_THROW(generate_trace(config), std::invalid_argument);
  config.width_hi = 100;
  config.num_ports = 10;
  EXPECT_THROW(generate_trace(config), std::invalid_argument);
}

TEST(Generator, Fig1CalibrationBands) {
  // Fig. 1(a): ~89.49% of flows below 10 GB; Fig. 1(b): >93.03% of bytes
  // from flows above 10 GB. Assert generous bands around both.
  const Trace t = generate_fig1_trace(20000, 42);
  const TraceStats stats = compute_stats(t);
  const double below = stats.count_fraction_below(10 * kGB);
  const double above_mass = stats.byte_fraction_above(10 * kGB);
  EXPECT_GT(below, 0.82);
  EXPECT_LT(below, 0.96);
  EXPECT_GT(above_mass, 0.80);
}

TEST(TraceStats, CountsAndTotals) {
  const TraceStats stats = compute_stats(tiny_trace());
  EXPECT_EQ(stats.num_flows, 3u);
  EXPECT_EQ(stats.num_coflows, 2u);
  EXPECT_DOUBLE_EQ(stats.total_bytes, 3500.0);
  EXPECT_DOUBLE_EQ(stats.flow_sizes.max(), 2000.0);
  EXPECT_DOUBLE_EQ(stats.coflow_widths.max(), 2.0);
  EXPECT_NEAR(stats.count_fraction_below(600), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(stats.byte_fraction_above(600), 3000.0 / 3500.0, 1e-9);
}

TEST(Jobs, GroupsConsecutiveCoflowsByFlowBudget) {
  Trace t;
  t.num_ports = 2;
  for (int i = 0; i < 10; ++i) {
    CoflowSpec c;
    c.id = static_cast<fabric::CoflowId>(i);
    c.arrival = i;
    c.flows.resize(4, FlowSpec{0, 1, 100.0, true, 0});
    t.coflows.push_back(c);
  }
  const auto jobs = group_into_jobs(t, 10);
  // 4 flows per coflow, 10 per job -> 3 coflows per job (12 flows), so 4 jobs.
  EXPECT_EQ(jobs.size(), 4u);
  EXPECT_EQ(t.coflows[0].job, t.coflows[2].job);
  EXPECT_NE(t.coflows[2].job, t.coflows[3].job);
  EXPECT_THROW(group_into_jobs(t, 0), std::invalid_argument);
}

TEST(Apps, SuiteVolumesSumToRequested) {
  const auto suite = hibench_suite(100 * kMB);
  ASSERT_EQ(suite.size(), 11u);
  common::Bytes total = 0;
  for (const auto& app : suite) total += app.shuffle_bytes;
  EXPECT_NEAR(total, 100 * kMB, 1.0);
  // Terasort dominates, as in Table I.
  EXPECT_EQ(suite[2].name, "Terasort");
  for (const auto& app : suite)
    EXPECT_LE(app.shuffle_bytes, suite[2].shuffle_bytes + 1e-9);
}

TEST(Apps, MakeCoflowSplitsBytesAcrossFlows) {
  common::Rng rng(5);
  const auto suite = hibench_suite(10 * kMB);
  const auto& app = suite[1];  // Sort: 8x8
  const CoflowSpec c = app.make_coflow(3, 4, 1.5, 16, rng);
  EXPECT_EQ(c.id, 3u);
  EXPECT_EQ(c.job, 4u);
  EXPECT_DOUBLE_EQ(c.arrival, 1.5);
  EXPECT_EQ(c.width(), app.mappers * app.reducers);
  EXPECT_NEAR(c.total_bytes(), app.shuffle_bytes, app.shuffle_bytes * 0.25);
}

TEST(Apps, HibenchTraceInterleavesRounds) {
  const Trace t = hibench_trace(10 * kMB, 3, 16, 0.1, 7);
  EXPECT_EQ(t.coflows.size(), 33u);
  EXPECT_EQ(t.num_ports, 16u);
  common::Seconds prev = -1;
  for (const auto& c : t.coflows) {
    EXPECT_GE(c.arrival, prev);
    prev = c.arrival;
  }
}

}  // namespace
}  // namespace swallow::workload
