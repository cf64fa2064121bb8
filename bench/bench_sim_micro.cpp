// Microbenchmarks (google-benchmark) for the scheduling hot paths: the
// rate solvers and each scheduler's full decision on a loaded fabric, plus
// an end-to-end engine run (in both engine modes) and the engine's walk
// over a degradation schedule's capacity changes. These bound how short a
// real deployment's scheduling slice could be (the paper discusses 10 ms).
//
// With SWALLOW_BENCH_JSON set, appends one JSON line mapping each
// benchmark to its per-iteration real time in ms, through bench_common's
// write_bench_json — tools/check_bench_regression.py consumes it.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "cpu/cpu_model.hpp"
#include "fabric/degradation.hpp"
#include "sched/dirty.hpp"
#include "sim/experiment.hpp"

namespace {

using namespace swallow;

/// A loaded context: `n` coflows of width 4 over 32 ports.
struct LoadedWorld {
  explicit LoadedWorld(std::size_t n)
      : fabric(32, common::mbps(1000)), cpu(0.9) {
    common::Rng rng(1);
    fabric::FlowId next_flow = 0;
    for (std::size_t c = 0; c < n; ++c) {
      fabric::Coflow coflow;
      coflow.id = c;
      for (int j = 0; j < 4; ++j) {
        fabric::Flow f;
        f.id = next_flow++;
        f.coflow = c;
        f.src = static_cast<fabric::PortId>(rng.uniform_int(0, 31));
        f.dst = static_cast<fabric::PortId>(rng.uniform_int(0, 31));
        f.raw_remaining = rng.uniform(1e6, 1e9);
        f.original_bytes = f.raw_remaining;
        coflow.flows.push_back(f.id);
        flows.push_back(f);
      }
      coflows.push_back(coflow);
    }
  }

  sched::SchedContext context() {
    sched::SchedContext ctx;
    ctx.fabric = &fabric;
    ctx.cpu = &cpu;
    ctx.codec = &codec::default_codec_model();
    for (auto& f : flows) ctx.flows.push_back(&f);
    for (auto& c : coflows) ctx.coflows.push_back(&c);
    return ctx;
  }

  fabric::Fabric fabric;
  cpu::ConstantCpu cpu;
  std::vector<fabric::Flow> flows;
  std::vector<fabric::Coflow> coflows;
};

void BM_SchedulerDecision(benchmark::State& state,
                          const std::string& name) {
  LoadedWorld world(static_cast<std::size_t>(state.range(0)));
  auto sched = sim::make_scheduler(name);
  auto ctx = world.context();
  for (auto _ : state) {
    const fabric::Allocation a = sched->schedule(ctx);
    benchmark::DoNotOptimize(a);
  }
  state.SetLabel(std::to_string(ctx.flows.size()) + " flows");
}

// Per-event cost of the incremental path (DESIGN.md section 11): the world
// carries a DirtyTracker, and each iteration drains a rotating 64-coflow
// window (marking it dirty) before asking for a fresh decision — the
// steady-state "few coflows changed" shape the dirty-set machinery targets.
// Compare against BM_SchedulerDecision at the same Arg (no tracker: every
// call rebuilds the scheduler's memo from scratch) for the cost of an
// identical decision without the dirty set.
void BM_SchedulerDecisionIncremental(benchmark::State& state,
                                     const std::string& name) {
  LoadedWorld world(static_cast<std::size_t>(state.range(0)));
  sched::DirtyTracker tracker(world.fabric.num_ports());
  tracker.bind_flows(world.flows.data(), world.flows.size());
  for (const auto& c : world.coflows) tracker.coflow_arrived(&c);
  auto sched = sim::make_scheduler(name);
  auto ctx = world.context();
  ctx.tracker = &tracker;
  std::size_t next = 0;
  for (auto _ : state) {
    for (std::size_t d = 0; d < 64; ++d) {
      fabric::Coflow& c = world.coflows[next++ % world.coflows.size()];
      for (const fabric::FlowId fid : c.flows) {
        fabric::Flow& f = world.flows[fid];
        if (f.raw_remaining > 2.0) {
          f.raw_remaining -= 1.0;
          f.sent += 1.0;
        }
      }
      tracker.flow_progressed(c.id);
    }
    const fabric::Allocation a = sched->schedule(ctx);
    benchmark::DoNotOptimize(a);
  }
  state.SetLabel(std::to_string(ctx.flows.size()) + " flows");
}

void BM_MaxMinFair(benchmark::State& state) {
  LoadedWorld world(static_cast<std::size_t>(state.range(0)));
  auto ctx = world.context();
  const std::vector<double> weights(ctx.flows.size(), 1.0);
  for (auto _ : state) {
    const fabric::Allocation a =
        fabric::weighted_max_min(ctx.flows, weights, world.fabric);
    benchmark::DoNotOptimize(a);
  }
}

void BM_EngineRun(benchmark::State& state, sim::EngineMode mode) {
  workload::GeneratorConfig gen;
  gen.num_ports = 16;
  gen.num_coflows = static_cast<std::size_t>(state.range(0));
  gen.size_lo = 1e6;
  gen.size_hi = 1e8;
  gen.width_hi = 4;
  gen.seed = 3;
  const workload::Trace trace = workload::generate_trace(gen);
  const fabric::Fabric fabric(16, common::gbps(1));
  const cpu::ConstantCpu cpu(0.9);
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();
  config.engine_mode = mode;
  for (auto _ : state) {
    auto sched = sim::make_scheduler("FVDF");
    const sim::Metrics m =
        run_simulation(trace, fabric, cpu, *sched, config);
    benchmark::DoNotOptimize(m.flows.size());
  }
}

// The engine's walk over a degrading fabric's capacity changes: at each
// change instant every port's multiplier, then the next change. A 64-port
// schedule at rate 0.05 over 520 simulated seconds changes 5,769 times,
// the pattern one benchmark/run.py replay-slo-journal replay drives. Each
// iteration starts from a newly built schedule.
void BM_CapacityEventWalk(benchmark::State& state) {
  constexpr std::size_t kPorts = 64;
  fabric::DegradationConfig config;
  config.rate = 0.05;
  config.seed = 7;
  std::size_t changes = 0;
  for (auto _ : state) {
    fabric::DegradationSchedule schedule(config, kPorts);
    double sum = 0.0;
    changes = 0;
    for (double t = 0.0; t <= 520.0; t = schedule.next_change_after(t)) {
      for (fabric::PortId p = 0; p < kPorts; ++p)
        sum += schedule.multiplier_at(p, t);
      ++changes;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetLabel(std::to_string(changes) + " changes");
}

BENCHMARK_CAPTURE(BM_SchedulerDecision, FVDF, "FVDF")
    ->Arg(32)->Arg(256)->Arg(4096)->Arg(32768)->MinTime(0.05);
BENCHMARK_CAPTURE(BM_SchedulerDecision, SEBF, "SEBF")
    ->Arg(32)->Arg(256)->Arg(4096)->Arg(32768)->MinTime(0.05);
BENCHMARK_CAPTURE(BM_SchedulerDecision, PFF, "PFF")
    ->Arg(32)->Arg(256)->MinTime(0.05);
BENCHMARK_CAPTURE(BM_SchedulerDecision, AALO, "AALO")
    ->Arg(32)->Arg(256)->Arg(4096)->Arg(32768)->MinTime(0.05);
BENCHMARK_CAPTURE(BM_SchedulerDecisionIncremental, FVDF, "FVDF")
    ->Arg(4096)->Arg(32768)->MinTime(0.05);
BENCHMARK_CAPTURE(BM_SchedulerDecisionIncremental, SEBF, "SEBF")
    ->Arg(4096)->Arg(32768)->MinTime(0.05);
BENCHMARK(BM_MaxMinFair)->Arg(32)->Arg(256)->MinTime(0.05);
BENCHMARK_CAPTURE(BM_EngineRun, event, sim::EngineMode::kEventDriven)
    ->Arg(20)->Unit(benchmark::kMillisecond)->MinTime(0.05);
BENCHMARK_CAPTURE(BM_EngineRun, slice, sim::EngineMode::kSliceStepped)
    ->Arg(20)->Unit(benchmark::kMillisecond)->MinTime(0.05);
BENCHMARK(BM_CapacityEventWalk)->Unit(benchmark::kMillisecond)->MinTime(0.05);

/// google-benchmark applies --benchmark_color only to the reporter it
/// builds itself, so a custom reporter reads the flag here, before
/// benchmark::Initialize consumes it. "auto" (the default) colours only a
/// terminal, so piped output carries no ANSI escapes.
bool console_color(int argc, char** argv) {
  constexpr std::string_view kFlag = "--benchmark_color=";
  std::string_view value = "auto";
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.starts_with(kFlag)) value = arg.substr(kFlag.size());
  }
  if (value == "auto") return isatty(STDOUT_FILENO) != 0;
  return value != "false" && value != "no" && value != "off" && value != "0";
}

/// Console output as usual, plus one (name, per-iteration real ms) record
/// per run for the JSON trail.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(bool color)
      : ConsoleReporter(color ? OO_ColorTabular : OO_Tabular) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.iterations <= 0) continue;
      const double ms = run.real_accumulated_time /
                        static_cast<double>(run.iterations) * 1e3;
      results_.emplace_back(run.benchmark_name(), ms);
    }
    ConsoleReporter::ReportRuns(runs);
  }

  const std::vector<std::pair<std::string, double>>& results() const {
    return results_;
  }

 private:
  std::vector<std::pair<std::string, double>> results_;
};

}  // namespace

int main(int argc, char** argv) {
  CapturingReporter reporter(console_color(argc, argv));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  swallow::bench::Gauges gauges;
  for (const auto& [name, ms] : reporter.results())
    gauges[name + ".real_ms"] = ms;
  swallow::bench::write_bench_json("bench_sim_micro", gauges);
  return 0;
}
