// Simulation-engine tests: byte conservation, exact completion timestamps,
// a hand-derived isolation bound, arrival activation, determinism,
// slice-staleness, allocation validation, deadlock detection, and digests
// that pin every output of a fixed run table.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "codec/checksum.hpp"
#include "sim/engine.hpp"
#include "sim/experiment.hpp"

namespace swallow::sim {
namespace {

workload::Trace single_flow_trace(double bytes, double arrival = 0.0) {
  workload::Trace t;
  t.num_ports = 2;
  workload::CoflowSpec c;
  c.id = 1;
  c.job = 1;
  c.arrival = arrival;
  c.flows = {{0, 1, bytes, true, 0}};
  t.coflows = {c};
  return t;
}

TEST(Engine, SingleFlowFctIsExactlyBytesOverBandwidth) {
  const auto trace = single_flow_trace(10.0);
  const fabric::Fabric fabric(2, 2.0);
  const cpu::ConstantCpu cpu(0.0);
  auto sched = make_scheduler("FIFO");
  SimConfig config;
  config.slice = 0.01;
  const Metrics m = run_simulation(trace, fabric, cpu, *sched, config);
  ASSERT_EQ(m.flows.size(), 1u);
  EXPECT_NEAR(m.flows[0].fct(), 5.0, 1e-9);
  EXPECT_NEAR(m.avg_cct(), 5.0, 1e-9);
}

TEST(Engine, IsolationBoundIsSetBySharedPort) {
  // One coflow: 100 B from port 0 to port 1 and 50 B from port 0 to port 2,
  // every port at 10 B/s. Alone, the flows need 10 s and 5 s; together
  // they share ingress 0, which must carry 150 B: 15 s.
  workload::Trace t;
  t.num_ports = 3;
  workload::CoflowSpec c;
  c.id = 1;
  c.job = 1;
  c.flows = {{0, 1, 100.0, true, 0}, {0, 2, 50.0, true, 0}};
  t.coflows = {c};
  const fabric::Fabric fabric(3, 10.0);
  const cpu::ConstantCpu cpu(0.0);
  for (const EngineMode mode :
       {EngineMode::kEventDriven, EngineMode::kSliceStepped}) {
    auto sched = make_scheduler("FIFO");
    SimConfig config;
    config.engine_mode = mode;
    const Metrics m = run_simulation(t, fabric, cpu, *sched, config);
    ASSERT_EQ(m.coflows.size(), 1u);
    EXPECT_EQ(m.coflows[0].isolation_bound, 15.0);
  }
}

TEST(Engine, SliceFloorTiesFvdfButNotSebf) {
  // Eq. 7's slice floor, by hand. Two ports at 10 Gbps (B = 1250 MB/s) and
  // δ = 10 ms, so B·δ = 12.5 MB. Two single-flow coflows on the same ports
  // arrive at t = 0: 5 MB (id 0) and 1 MB (id 1). LZ4 at h = 0.9 encodes
  // far slower than B, so Eq. 3 refuses to compress either flow.
  //   FVDF: a flow under B·δ gets Γ_F = δ + max(0, V − B·δ) / B = δ, so
  //   both coflows tie at Γ_C = δ and go in id order. Lanes are paced at
  //   V / δ: coflow 0 wants 500 MB/s and coflow 1 100 MB/s, and backfill
  //   tops coflow 0 up with the other 650 MB/s. Coflow 0 ends at
  //   5 MB / 1150 MB/s ≈ 4.348 ms. The next round waits for the 10 ms
  //   boundary, so coflow 1 keeps 100 MB/s and ends at 10 ms.
  //   SEBF: the bottlenecks are 4 ms and 0.8 ms, so coflow 1 takes the
  //   whole port and ends at 1 MB / 1250 MB/s = 0.8 ms. The port then
  //   idles to the 10 ms boundary, and coflow 0 ends at 10 + 4 = 14 ms.
  workload::Trace t;
  t.num_ports = 2;
  for (const common::Bytes bytes : {5e6, 1e6}) {
    workload::CoflowSpec c;
    c.id = t.coflows.size();
    c.flows = {{0, 1, bytes, true, 0}};
    t.coflows.push_back(c);
  }
  const fabric::Fabric fabric(2, common::gbps(10));
  const cpu::ConstantCpu cpu(0.9);
  struct Want {
    const char* scheduler;
    common::Seconds cct0, cct1;
  };
  for (const Want& want :
       {Want{"FVDF", 5e6 / 1150e6, 0.010}, Want{"SEBF", 0.014, 0.0008}}) {
    for (const EngineMode mode :
         {EngineMode::kEventDriven, EngineMode::kSliceStepped}) {
      SCOPED_TRACE(std::string(want.scheduler) +
                   (mode == EngineMode::kEventDriven ? " event" : " slice"));
      auto sched = make_scheduler(want.scheduler);
      SimConfig config;
      config.codec = &codec::default_codec_model();
      config.engine_mode = mode;
      const Metrics m = run_simulation(t, fabric, cpu, *sched, config);
      ASSERT_EQ(m.coflows.size(), 2u);
      EXPECT_NEAR(m.coflows[0].completion, want.cct0, 1e-12);
      EXPECT_NEAR(m.coflows[1].completion, want.cct1, 1e-12);
      EXPECT_EQ(m.total_wire_bytes(), m.total_original_bytes());
    }
  }
}

TEST(Engine, WireBytesEqualOriginalWithoutCompression) {
  workload::Trace t;
  t.num_ports = 4;
  for (int i = 0; i < 5; ++i) {
    workload::CoflowSpec c;
    c.id = static_cast<fabric::CoflowId>(i);
    c.job = i;
    c.arrival = i * 0.2;
    c.flows = {{static_cast<fabric::PortId>(i % 4),
                static_cast<fabric::PortId>((i + 1) % 4), 100.0 + i, true, 0}};
    t.coflows.push_back(c);
  }
  const fabric::Fabric fabric(4, 50.0);
  const cpu::ConstantCpu cpu(1.0);
  auto sched = make_scheduler("SEBF");
  const Metrics m = run_simulation(t, fabric, cpu, *sched, {});
  EXPECT_NEAR(m.total_wire_bytes(), m.total_original_bytes(), 1e-6);
  EXPECT_NEAR(m.traffic_reduction(), 0.0, 1e-9);
}

TEST(Engine, LateArrivalStartsNoEarlierThanArrival) {
  const auto trace = single_flow_trace(10.0, 3.0);
  const fabric::Fabric fabric(2, 2.0);
  const cpu::ConstantCpu cpu(0.0);
  auto sched = make_scheduler("FIFO");
  const Metrics m = run_simulation(trace, fabric, cpu, *sched, {});
  EXPECT_GE(m.flows[0].completion, 8.0 - 1e-9);
  EXPECT_NEAR(m.flows[0].fct(), 5.0, 0.02);
}

TEST(Engine, DeterministicAcrossRuns) {
  workload::GeneratorConfig gen;
  gen.num_ports = 8;
  gen.num_coflows = 20;
  gen.size_lo = 1e5;
  gen.size_hi = 1e7;
  gen.width_hi = 4;
  gen.seed = 5;
  const auto trace = workload::generate_trace(gen);
  const fabric::Fabric fabric(8, common::mbps(100));
  const cpu::ConstantCpu cpu(0.8);
  auto s1 = make_scheduler("FVDF");
  auto s2 = make_scheduler("FVDF");
  SimConfig config;
  config.codec = &codec::default_codec_model();
  const Metrics a = run_simulation(trace, fabric, cpu, *s1, config);
  const Metrics b = run_simulation(trace, fabric, cpu, *s2, config);
  ASSERT_EQ(a.flows.size(), b.flows.size());
  for (std::size_t i = 0; i < a.flows.size(); ++i)
    EXPECT_DOUBLE_EQ(a.flows[i].completion, b.flows[i].completion);
}

TEST(Engine, LongerSlicesNeverImproveCct) {
  workload::GeneratorConfig gen;
  gen.num_ports = 6;
  gen.num_coflows = 15;
  gen.size_lo = 1e6;
  gen.size_hi = 1e8;
  gen.width_hi = 3;
  gen.seed = 9;
  const auto trace = workload::generate_trace(gen);
  const fabric::Fabric fabric(6, common::mbps(100));
  const cpu::ConstantCpu cpu(0.0);
  double prev = 0;
  for (const double slice : {0.01, 0.1, 1.0}) {
    auto sched = make_scheduler("SEBF");
    SimConfig config;
    config.slice = slice;
    const Metrics m = run_simulation(trace, fabric, cpu, *sched, config);
    EXPECT_GE(m.avg_cct(), prev * 0.999) << slice;
    prev = m.avg_cct();
  }
}

TEST(Engine, CompressionReducesWireBytes) {
  const auto trace = single_flow_trace(1000.0);
  const fabric::Fabric fabric(2, 1.0);  // 1 B/s: compression clearly wins
  const cpu::ConstantCpu cpu(1.0);
  auto sched = make_scheduler("FVDF");
  SimConfig config;
  const codec::CodecModel codec{"t", 100.0, 400.0, 0.5};
  config.codec = &codec;
  const Metrics m = run_simulation(trace, fabric, cpu, *sched, config);
  EXPECT_NEAR(m.total_wire_bytes(), 500.0, 1.0);
  EXPECT_NEAR(m.traffic_reduction(), 0.5, 0.01);
  // FCT ~ compression time (1000/100 = 10s) + wire (500/1 = 500s), far
  // below the uncompressed 1000s.
  EXPECT_LT(m.flows[0].fct(), 550.0);
}

TEST(Engine, IncompressibleFlowIsNeverCompressed) {
  auto trace = single_flow_trace(1000.0);
  trace.coflows[0].flows[0].compressible = false;
  const fabric::Fabric fabric(2, 1.0);
  const cpu::ConstantCpu cpu(1.0);
  auto sched = make_scheduler("FVDF");
  SimConfig config;
  const codec::CodecModel codec{"t", 100.0, 400.0, 0.5};
  config.codec = &codec;
  const Metrics m = run_simulation(trace, fabric, cpu, *sched, config);
  EXPECT_NEAR(m.total_wire_bytes(), 1000.0, 1e-6);
}

TEST(Engine, CpuStallFallsBackToTransmission) {
  // CPU idle only for the first 0.5 s: compression starts, stalls, and the
  // engine must reschedule to plain transmission instead of deadlocking.
  const auto trace = single_flow_trace(100.0);
  const fabric::Fabric fabric(2, 10.0);
  const cpu::WindowedCpu cpu({{0.0, 0.5}});
  auto sched = make_scheduler("FVDF");
  SimConfig config;
  const codec::CodecModel codec{"t", 40.0, 160.0, 0.5};
  config.codec = &codec;
  const Metrics m = run_simulation(trace, fabric, cpu, *sched, config);
  ASSERT_EQ(m.flows.size(), 1u);
  EXPECT_GT(m.flows[0].completion, 0.0);
  // Partially compressed: wire bytes strictly between 50 and 100.
  EXPECT_GT(m.total_wire_bytes(), 50.0);
  EXPECT_LT(m.total_wire_bytes(), 100.0);
}

namespace {
/// A deliberately broken scheduler that oversubscribes every port.
class OverloadScheduler final : public sched::Scheduler {
 public:
  std::string name() const override { return "overload"; }
  fabric::Allocation schedule(const sched::SchedContext& ctx) override {
    fabric::Allocation a;
    for (const auto* f : ctx.flows)
      a.set_rate(f->id, ctx.fabric->ingress_capacity(f->src) * 2.0);
    return a;
  }
};

/// A scheduler that never allocates anything.
class LazyScheduler final : public sched::Scheduler {
 public:
  std::string name() const override { return "lazy"; }
  fabric::Allocation schedule(const sched::SchedContext&) override {
    return {};
  }
};
}  // namespace

TEST(Engine, RejectsInfeasibleAllocations) {
  const auto trace = single_flow_trace(10.0);
  const fabric::Fabric fabric(2, 1.0);
  const cpu::ConstantCpu cpu(0.0);
  OverloadScheduler sched;
  EXPECT_THROW(run_simulation(trace, fabric, cpu, sched, {}), SimError);
}

TEST(Engine, DetectsDeadlock) {
  const auto trace = single_flow_trace(10.0);
  const fabric::Fabric fabric(2, 1.0);
  const cpu::ConstantCpu cpu(0.0);
  LazyScheduler sched;
  SimConfig config;
  config.slice = 0.05;  // keep the stall window short
  EXPECT_THROW(run_simulation(trace, fabric, cpu, sched, config), SimError);
}

TEST(Engine, RejectsBadConfigs) {
  const auto trace = single_flow_trace(10.0);
  const fabric::Fabric fabric(2, 1.0);
  const fabric::Fabric small(1, 1.0);
  const cpu::ConstantCpu cpu(0.0);
  auto sched = make_scheduler("FIFO");
  // A NaN or infinite slice makes every boundary time NaN or infinite, so
  // no arrival would ever be due.
  for (const double slice : {0.0, -1.0,
                             std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity()}) {
    SimConfig config;
    config.slice = slice;
    EXPECT_THROW(run_simulation(trace, fabric, cpu, *sched, config),
                 std::invalid_argument)
        << "slice " << slice;
  }
  EXPECT_THROW(run_simulation(trace, small, cpu, *sched, {}),
               std::invalid_argument);
}

TEST(Engine, EmptyTraceYieldsEmptyMetrics) {
  workload::Trace t;
  t.num_ports = 2;
  const fabric::Fabric fabric(2, 1.0);
  const cpu::ConstantCpu cpu(0.0);
  auto sched = make_scheduler("FIFO");
  // Degraded, a run that never starts samples no capacity changes.
  SimConfig degraded;
  degraded.degradation.rate = 1.0;
  for (const SimConfig& config : {SimConfig{}, degraded}) {
    const Metrics m = run_simulation(t, fabric, cpu, *sched, config);
    EXPECT_TRUE(m.flows.empty());
    EXPECT_TRUE(m.coflows.empty());
    EXPECT_TRUE(m.utilization.empty());
    EXPECT_DOUBLE_EQ(m.avg_fct(), 0.0);
    EXPECT_EQ(m.degradation.capacity_changes, 0u);
    EXPECT_EQ(m.degradation.link_failures, 0u);
    EXPECT_EQ(m.degradation.stalled_flow_slices, 0u);
    EXPECT_EQ(m.degradation.compression_flips, 0u);
  }
}


// ---- Pinned outputs. ----
// The parity suites compare the engine with itself (event mode against
// slice mode, incremental against full, restored against uninterrupted), so
// a change to code both sides share passes them unnoticed. These digests
// were captured from a known-good build and pin every record field,
// utilization sample and DegradationStats/SloStats field of a fixed run
// table. The inputs come from an embedded text trace, not from the
// generators, so no digest depends on the C library's math functions. They
// do assume IEEE-754 doubles evaluated without fused multiply-add
// contraction, as on the x86-64 builds they were captured with; the
// top-level CMakeLists.txt enforces that with -ffp-contract=off.

// 26 coflows on 8 ports, 14 of them with deadlines, arriving over 3.1 s
// with about 1.5 times the bytes the 100 Mbps fabric carries in that time,
// so many flows wait idle while others are served.
constexpr const char* kPinnedTrace = R"(8 26 deadlines
1 91 1 1 150
7 5 4470797 1
2 242 1 4 0
1 2 8527053 0
5 7 11379950 0
0 5 35251374 1
1 5 1105757 1
3 388 1 4 0
3 4 1101590 1
5 6 989474 0
2 5 1812411 1
4 4 1013181 1
4 517 2 4 2500
0 4 2696403 1
5 2 318099 0
2 5 327373 1
2 0 563264 1
5 576 2 1 6000
1 2 2188260 1
6 615 2 1 6000
4 0 20979996 1
7 689 3 1 150
7 7 1036575 1
8 836 3 3 0
0 7 7861315 1
4 1 215049 1
3 2 422492 1
9 971 3 3 6000
0 0 11398553 1
7 0 940604 1
0 2 274853 1
10 1082 4 4 0
3 7 3159404 1
5 5 1843861 1
5 7 2594804 1
7 2 2922330 1
11 1217 4 1 900
1 0 4140817 1
12 1327 4 3 900
7 6 4065786 1
5 1 25589502 1
3 4 2988658 0
13 1457 5 4 2500
4 1 2315131 1
7 6 31541494 1
6 7 832089 1
2 6 663873 1
14 1540 5 4 0
3 3 16987750 1
4 2 1710508 1
3 6 1446061 1
6 5 26108842 1
15 1676 5 3 0
6 6 2309218 1
0 7 240427 1
6 7 8779772 1
16 1867 6 1 2500
6 1 1907960 0
17 1950 6 4 0
7 1 5691211 1
5 7 377921 1
7 4 17359949 1
0 0 4397227 1
18 2058 6 4 6000
0 3 24005867 1
5 6 341146 1
6 5 1121726 1
3 4 956361 1
19 2237 7 3 150
1 6 325985 1
6 6 1764079 1
2 6 8009295 0
20 2262 7 2 150
0 7 22102396 1
7 2 4069293 1
21 2412 7 2 900
4 2 418449 1
6 5 794542 0
22 2578 8 2 0
1 1 1498711 1
0 3 21572809 1
23 2738 8 2 0
5 5 14952306 1
2 0 2813464 1
24 2833 8 1 0
5 5 473402 1
25 3042 9 4 0
7 3 37185339 0
0 0 547235 1
1 5 8298555 1
0 0 422201 1
26 3113 9 2 0
4 0 17513535 1
3 5 19271339 1
)";

workload::Trace pinned_trace() {
  std::istringstream in(kPinnedTrace);
  return workload::parse_trace(in);
}

/// Little-endian bytes of every output value, hashed with checksum64.
class OutputDigest {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes_.push_back(std::uint8_t(v >> (8 * i)));
  }
  void add(double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof u);
    add(u);
  }
  std::uint64_t value() const { return codec::checksum64(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

std::uint64_t digest(const Metrics& m) {
  OutputDigest d;
  d.add(std::uint64_t(m.flows.size()));
  for (const FlowRecord& f : m.flows) {
    d.add(std::uint64_t(f.id));
    d.add(std::uint64_t(f.coflow));
    d.add(std::uint64_t(f.job));
    d.add(f.original_bytes);
    d.add(f.wire_bytes);
    d.add(f.arrival);
    d.add(f.completion);
  }
  d.add(std::uint64_t(m.coflows.size()));
  for (const CoflowRecord& c : m.coflows) {
    d.add(std::uint64_t(c.id));
    d.add(std::uint64_t(c.job));
    d.add(std::uint64_t(c.width));
    d.add(c.original_bytes);
    d.add(c.wire_bytes);
    d.add(c.arrival);
    d.add(c.completion);
    d.add(c.isolation_bound);
    d.add(c.deadline);
    d.add(std::uint64_t(c.rejected));
  }
  d.add(std::uint64_t(m.utilization.size()));
  for (const UtilizationSample& s : m.utilization) {
    d.add(s.t);
    d.add(s.egress_utilization);
  }
  const DegradationStats& g = m.degradation;
  d.add(g.capacity_changes);
  d.add(g.link_failures);
  d.add(g.stalled_flow_slices);
  d.add(g.compression_flips);
  const SloStats& s = m.slo;
  d.add(s.with_deadline);
  d.add(s.admitted);
  d.add(s.degraded);
  d.add(s.deferred);
  d.add(s.rejected);
  d.add(s.shed_midflight);
  d.add(s.shed_bytes);
  d.add(s.repriced_shed);
  d.add(s.repriced_demoted);
  return d.value();
}

struct PinnedRun {
  const char* scheduler;
  /// Degradation 0.1, quantized completions, decompression modeling and a
  /// CPU with busy windows, instead of a steady CPU on a healthy fabric.
  bool stressed;
  std::uint64_t digest;
};

// Both engine modes must reproduce each digest. FVDF-BLIND is not pinned:
// at 100 Mbps the Eq. 3 gate passes for every flow of this trace, so its
// digests equal FVDF's (test_incremental runs it where the gate refuses).
constexpr PinnedRun kPinnedRuns[] = {
    {"FVDF", false, 0xcceb857d4eb70af6ULL},
    {"FVDF", true, 0xd6b7c499e31de5afULL},
    {"FVDF-NOBACKFILL", false, 0xa4d67e94695bb2a8ULL},
    {"FVDF-NOBACKFILL", true, 0x28f368f0055b7a5aULL},
    {"FVDF-NC", false, 0x2eab4f4530269f04ULL},
    {"FVDF-NC", true, 0x28881f3204e3faadULL},
    {"FVDF-NOUPGRADE", false, 0xde4cce917a9852aeULL},
    {"FVDF-NOUPGRADE", true, 0xfd7061dfb44f50b3ULL},
    {"SEBF", false, 0x8667aa1fb35ef50eULL},
    {"SEBF", true, 0x1129070d103cd707ULL},
    {"SEBF-NOBACKFILL", false, 0xe45a20aa0d4053e4ULL},
    {"SEBF-NOBACKFILL", true, 0x3ce6216c5609695cULL},
    {"AALO", false, 0xd3f0afeea8f64582ULL},
    {"AALO", true, 0x04ac4d5e788278e5ULL},
    {"FIFO", false, 0xa83594610e190ac5ULL},
    {"FIFO", true, 0x5bcca7edce72fb4fULL},
    {"PFF", false, 0x878e864beca85e79ULL},
    {"PFF", true, 0xf2976c5b0a4ba18fULL},
    {"WSS", false, 0x9f7838e55153cd2dULL},
    {"WSS", true, 0x687171f1699b7ff2ULL},
    {"PFP", false, 0xe1954a859ab17939ULL},
    {"PFP", true, 0xd652d9ce701cfa7bULL},
    {"SCF", false, 0x7eaaaa5996531e5fULL},
    {"SCF", true, 0x217a610cf7c59592ULL},
    {"NCF", false, 0x274ab388067f5df6ULL},
    {"NCF", true, 0x19ede44428cec577ULL},
    {"LCF", false, 0x6a58324f0bf62e28ULL},
    {"LCF", true, 0x9d6b15d033032a3dULL},
    {"SINCRONIA", false, 0x233a83a918cb6a61ULL},
    {"SINCRONIA", true, 0xebb780821fc34da0ULL},
    {"DEADLINE-FVDF", false, 0xd27142efaf466c23ULL},
    {"DEADLINE-FVDF", true, 0x17fe2dfad773dd4aULL},
};

TEST(Engine, OutputsMatchPinnedDigests) {
  // Every listed scheduler has a plain and a stressed row (FVDF-BLIND
  // excepted, above), so a new scheduler cannot land unpinned.
  for (const std::string& name : scheduler_names()) {
    if (name == "FVDF-BLIND") continue;
    for (const bool stressed : {false, true})
      EXPECT_TRUE(std::any_of(std::begin(kPinnedRuns), std::end(kPinnedRuns),
                              [&](const PinnedRun& p) {
                                return p.scheduler == name &&
                                       p.stressed == stressed;
                              }))
          << name << (stressed ? " has no stressed row" : " has no plain row");
  }

  const workload::Trace trace = pinned_trace();
  ASSERT_EQ(trace.coflows.size(), 26u);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(100));
  const cpu::ConstantCpu steady(0.9);
  // Compression stalls when a busy window opens under an assigned beta.
  const cpu::WindowedCpu windowed({{0.0, 0.7}, {1.3, 2.2}, {3.1, 1e9}}, 0.9,
                                  0.0);
  for (const PinnedRun& p : kPinnedRuns) {
    for (const EngineMode mode :
         {EngineMode::kEventDriven, EngineMode::kSliceStepped}) {
      SimConfig config;
      config.engine_mode = mode;
      config.codec = &codec::default_codec_model();
      config.utilization_sample_period = 0.25;
      config.max_time = 36000.0;
      config.admission.enabled = std::string(p.scheduler) == "DEADLINE-FVDF";
      if (p.stressed) {
        config.degradation.rate = 0.1;
        config.degradation.seed = 5;
        config.degradation.failure_fraction = 0.5;
        config.quantize_completions = true;
        config.model_decompression = true;
      }
      auto sched = make_scheduler(p.scheduler);
      const Metrics m = run_simulation(
          trace, fabric,
          p.stressed ? static_cast<const cpu::CpuProvider&>(windowed) : steady,
          *sched, config);
      const std::uint64_t h = digest(m);
      char got[32];
      std::snprintf(got, sizeof got, "0x%016llx",
                    static_cast<unsigned long long>(h));
      EXPECT_EQ(h, p.digest)
          << p.scheduler << (p.stressed ? " stressed" : " plain")
          << (mode == EngineMode::kEventDriven ? " event" : " slice")
          << " mode: digest " << got;
    }
  }
}

}  // namespace
}  // namespace swallow::sim
