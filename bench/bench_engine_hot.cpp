// bench_engine_hot: hot-path microbenchmark of the simulation engine.
//
// Same-binary A/B: runs the identical trace battery under
// EngineMode::kEventDriven and EngineMode::kSliceStepped, checks the two
// produce bit-identical headline metrics (the parity contract of DESIGN.md
// section 10), and reports the wall-clock speedup of the fast-forward
// engine. Then measures run_batch scaling by replaying the event-mode
// battery serially and across the thread pool.
//
// Flags: --coflows=N (trace size, default 40), --runs=N (battery size,
// default 6), --threads=N (pool width, default hardware), --seed=N.
// With SWALLOW_BENCH_JSON set, appends a JSON line of gauges
// (engine.event_ms, engine.slice_ms, engine.speedup, batch.serial_ms,
// batch.parallel_ms, batch.scaling) consumed by
// tools/check_bench_regression.py.
#include <chrono>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "sim/run_batch.hpp"

using namespace swallow;

namespace {

double now_ms() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double, std::milli>(
             clock::now().time_since_epoch())
      .count();
}

struct RunResult {
  double avg_cct = 0;
  double avg_fct = 0;
  double wire_bytes = 0;
  double makespan = 0;
};

struct BenchKnobs {
  double bandwidth_mbps = 100;
  common::Seconds slice = common::kDefaultSlice;
};

// Long-flow battery: the regime the fast-forward engine exists for. Flow
// sizes land in [500 MB, 50 GB] so a flow spans thousands of slices
// between events, unlike the paper_like_trace mix whose median flow fits
// in one slice.
workload::Trace hot_trace(std::uint64_t seed, std::size_t num_coflows) {
  workload::GeneratorConfig gen;
  gen.num_ports = 12;
  gen.num_coflows = num_coflows;
  gen.mean_interarrival = 0.5;
  gen.size_lo = 5e8;
  gen.size_hi = 5e10;
  gen.size_alpha = 0.1;
  gen.width_lo = 1;
  gen.width_hi = 5;
  gen.seed = seed;
  return workload::generate_trace(gen);
}

RunResult run_once(const workload::Trace& trace, sim::EngineMode mode,
                   const BenchKnobs& knobs,
                   const std::string& recovery_dir = {},
                   std::uint64_t checkpoint_every = 0) {
  const fabric::Fabric fabric(trace.num_ports, common::mbps(knobs.bandwidth_mbps));
  const cpu::ConstantCpu cpu(0.9);
  sim::SimConfig config;
  config.slice = knobs.slice;
  config.codec = &codec::default_codec_model();
  config.engine_mode = mode;
  config.recovery.dir = recovery_dir;
  config.recovery.checkpoint_every = checkpoint_every;
  auto sched = sim::make_scheduler("FVDF");
  const sim::Metrics m = run_simulation(trace, fabric, cpu, *sched, config);
  return {m.avg_cct(), m.avg_fct(), m.total_wire_bytes(), m.makespan()};
}

bool same(const RunResult& a, const RunResult& b) {
  return a.avg_cct == b.avg_cct && a.avg_fct == b.avg_fct &&
         a.wire_bytes == b.wire_bytes && a.makespan == b.makespan;
}

}  // namespace

int main(int argc, char** argv) {
  const common::Flags flags(argc, argv);
  common::apply_log_level_flag(flags);
  const std::size_t coflows =
      static_cast<std::size_t>(flags.get_int("coflows", 40));
  const std::size_t runs = static_cast<std::size_t>(flags.get_int("runs", 6));
  std::size_t threads = static_cast<std::size_t>(flags.get_int("threads", 0));
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  const std::uint64_t seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 42));
  BenchKnobs knobs;
  knobs.bandwidth_mbps = flags.get_double("bandwidth-mbps", 100);
  knobs.slice = flags.get_double("slice", common::kDefaultSlice);

  bench::print_header(
      "bench_engine_hot",
      "Engine hot path: event-driven fast-forward vs the slice-stepped\n"
      "reference (same binary, same traces, bit-identical metrics), and\n"
      "run_batch scaling across the thread pool.");

  std::vector<workload::Trace> traces;
  traces.reserve(runs);
  for (std::size_t i = 0; i < runs; ++i)
    traces.push_back(hot_trace(sim::batch_seed(seed, i) % 100000, coflows));

  // --- A/B: event vs slice, serial, alternating to spread cache effects.
  std::vector<RunResult> event_results(runs), slice_results(runs);
  double event_ms = 0, slice_ms = 0;
  for (std::size_t i = 0; i < runs; ++i) {
    double t0 = now_ms();
    event_results[i] = run_once(traces[i], sim::EngineMode::kEventDriven, knobs);
    event_ms += now_ms() - t0;
    t0 = now_ms();
    slice_results[i] = run_once(traces[i], sim::EngineMode::kSliceStepped, knobs);
    slice_ms += now_ms() - t0;
  }
  bool parity = true;
  for (std::size_t i = 0; i < runs; ++i)
    if (!same(event_results[i], slice_results[i])) parity = false;
  const double speedup = event_ms > 0 ? slice_ms / event_ms : 0;

  common::Table ab({"mode", "wall ms", "ms/run", "speedup"});
  ab.add_row({"slice-stepped", common::fmt_double(slice_ms, 1),
          common::fmt_double(slice_ms / runs, 2), "1.0x"});
  ab.add_row({"event-driven", common::fmt_double(event_ms, 1),
          common::fmt_double(event_ms / runs, 2),
          common::fmt_speedup(speedup)});
  ab.print(std::cout);
  std::cout << "parity: " << (parity ? "OK (bit-identical metrics)" : "FAIL")
            << "\n\n";

  // --- Checkpoint overhead: the same event-mode battery with the crash
  // tolerance layer on (write-ahead journal + a snapshot every
  // --checkpoint-every scheduling rounds). Persistence must not perturb
  // the simulation (bit-identical metrics) and its wall-clock cost is
  // reported as a separate gauge so the engine.event_ms gate keeps
  // measuring the bare hot path.
  const auto checkpoint_every =
      static_cast<std::uint64_t>(flags.get_int("checkpoint-every", 64));
  double ckpt_ms = 0;
  bool ckpt_identical = true;
  {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "swallow-benchck-XXXXXX")
            .string();
    if (::mkdtemp(tmpl.data()) != nullptr) {
      for (std::size_t i = 0; i < runs; ++i) {
        const std::string dir = tmpl + "/run" + std::to_string(i);
        const double c0 = now_ms();
        const RunResult r = run_once(traces[i], sim::EngineMode::kEventDriven,
                                     knobs, dir, checkpoint_every);
        ckpt_ms += now_ms() - c0;
        if (!same(r, event_results[i])) ckpt_identical = false;
      }
      std::error_code ec;
      std::filesystem::remove_all(tmpl, ec);
    }
  }
  const double ckpt_overhead =
      event_ms > 0 ? (ckpt_ms - event_ms) / event_ms : 0;
  common::Table ck({"recovery", "wall ms", "ms/run", "overhead"});
  ck.add_row({"off", common::fmt_double(event_ms, 1),
              common::fmt_double(event_ms / runs, 2), "-"});
  ck.add_row({"every " + std::to_string(checkpoint_every) + " rounds",
              common::fmt_double(ckpt_ms, 1),
              common::fmt_double(ckpt_ms / runs, 2),
              common::fmt_percent(ckpt_overhead)});
  ck.print(std::cout);
  std::cout << "checkpoint identity: "
            << (ckpt_identical ? "OK (persistence does not perturb metrics)"
                               : "FAIL")
            << "\n\n";

  // --- run_batch scaling: the same event-mode battery, serial vs pool.
  auto batch_job = [&](std::size_t i) {
    return run_once(traces[i % runs], sim::EngineMode::kEventDriven, knobs);
  };
  const std::size_t jobs = runs * 4;  // enough work to keep the pool busy
  sim::BatchOptions serial;
  serial.threads = 1;
  sim::BatchOptions pool;
  pool.threads = threads;
  double t0 = now_ms();
  const auto serial_out = sim::run_batch(jobs, batch_job, serial);
  const double serial_ms = now_ms() - t0;
  t0 = now_ms();
  const auto pool_out = sim::run_batch(jobs, batch_job, pool);
  const double pool_ms = now_ms() - t0;
  bool batch_ok = true;
  for (std::size_t i = 0; i < jobs; ++i)
    if (!same(serial_out[i], pool_out[i])) batch_ok = false;
  const double scaling = pool_ms > 0 ? serial_ms / pool_ms : 0;

  common::Table bt({"run_batch", "jobs", "wall ms", "scaling"});
  bt.add_row({"1 thread", std::to_string(jobs), common::fmt_double(serial_ms, 1),
          "1.0x"});
  bt.add_row({std::to_string(threads) + " threads", std::to_string(jobs),
          common::fmt_double(pool_ms, 1), common::fmt_speedup(scaling)});
  bt.print(std::cout);
  std::cout << "batch determinism: " << (batch_ok ? "OK" : "FAIL")
            << " (pool results identical to serial)\n";

  bench::Gauges gauges;
  gauges["engine.event_ms"] = event_ms;
  gauges["engine.slice_ms"] = slice_ms;
  gauges["engine.speedup"] = speedup;
  gauges["batch.serial_ms"] = serial_ms;
  gauges["batch.parallel_ms"] = pool_ms;
  gauges["batch.scaling"] = scaling;
  gauges["batch.threads"] = static_cast<double>(threads);
  gauges["engine.checkpoint_ms"] = ckpt_ms;
  gauges["engine.checkpoint_overhead"] = ckpt_overhead;
  bench::write_bench_json(bench::current_artifact(), gauges);

  return parity && batch_ok && ckpt_identical ? 0 : 1;
}
