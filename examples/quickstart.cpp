// Quickstart: simulate a coflow workload under Swallow's FVDF scheduler and
// the Varys SEBF baseline, on a 100 Mbps fabric with the LZ4 codec model.
//
//   ./quickstart [--coflows=40] [--ports=12] [--seed=1]
//                [--log-level=info] [--trace-out=trace.json]
//
// This is the smallest end-to-end use of the library: generate a workload,
// pick a scheduler, run the simulator, read the metrics. --trace-out
// records every scheduler decision (Γ_C, priority classes, β switches,
// preemptions) as Chrome trace_event JSON — open it in
// https://ui.perfetto.dev or chrome://tracing.
#include <iostream>

#include "common/flags.hpp"
#include "common/table.hpp"
#include "cpu/cpu_model.hpp"
#include "obs/cli.hpp"
#include "sim/experiment.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv);
  common::apply_log_level_flag(flags);
  const std::unique_ptr<obs::Tracer> tracer = obs::tracer_from_flags(flags);

  // 1. A synthetic Spark-like workload: heavy-tailed coflows, Poisson
  //    arrivals. (Use workload::parse_trace_file to replay your own trace.)
  workload::GeneratorConfig gen;
  gen.num_ports = static_cast<std::size_t>(flags.get_int("ports", 12));
  gen.num_coflows = static_cast<std::size_t>(flags.get_int("coflows", 40));
  gen.size_lo = 1e5;
  gen.size_hi = 1e9;
  gen.size_alpha = 0.15;
  gen.width_hi = 5;
  gen.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const workload::Trace trace = workload::generate_trace(gen);

  // 2. The environment: a big-switch fabric, idle-ish CPUs, LZ4 parameters.
  const fabric::Fabric fabric(gen.num_ports, common::mbps(100));
  const cpu::ConstantCpu cpu(0.9);
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();  // Table II LZ4
  config.sink = tracer.get();

  // 3. Run both schedulers and compare.
  common::Table table({"scheduler", "avg CCT (s)", "avg FCT (s)",
                       "traffic reduction", "makespan (s)"});
  for (const char* name : {"FVDF", "SEBF"}) {
    const auto scheduler = sim::make_scheduler(name);
    const sim::Metrics m =
        sim::run_simulation(trace, fabric, cpu, *scheduler, config);
    table.add_row({name, common::fmt_double(m.avg_cct(), 2),
                   common::fmt_double(m.avg_fct(), 2),
                   common::fmt_percent(m.traffic_reduction()),
                   common::fmt_double(m.makespan(), 2)});
  }
  std::cout << "Swallow quickstart: " << trace.coflows.size()
            << " coflows / " << trace.total_flows() << " flows over "
            << gen.num_ports << " ports at 100 Mbps\n\n";
  table.print(std::cout);
  std::cout << "\nFVDF = joint scheduling + compression (this paper);"
               " SEBF = Varys baseline.\n";
  if (tracer != nullptr) {
    if (!obs::write_trace_from_flags(flags, *tracer)) return 1;
    std::cout << "\ntrace: " << tracer->size() << " events -> "
              << flags.get("trace-out", "")
              << " (open in https://ui.perfetto.dev)\n";
  }
  return 0;
}
