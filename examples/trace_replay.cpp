// Trace replay: a small CLI around the library. Generates (or loads) a
// coflow trace, replays it under any scheduler in the registry, and prints
// a metrics report — the workflow for evaluating a scheduling idea against
// your own workloads.
//
//   ./trace_replay --scheduler=FVDF --bandwidth_mbps=100 --coflows=60
//   ./trace_replay --trace=/path/to/trace.txt --scheduler=SEBF
//   ./trace_replay --write_trace=/tmp/out.txt   (emit a sample trace file)
//   ./trace_replay --csv=/tmp/out  (also writes out.flows.csv etc.)
//   ./trace_replay --degrade-rate=0.05 --degrade-seed=7   (replay the same
//       trace against a degrading fabric: seeded link failures/brownouts;
//       rate 0 — the default — is byte-identical to the static fabric)
//   ./trace_replay --deadline-fraction=0.7 --scheduler=DEADLINE-FVDF
//       --admission   (generate SLO deadlines on 70% of coflows, schedule
//       them deadline-aware, and gate arrivals through admission control
//       with expiry shedding; see DESIGN.md section 12)
//   ./trace_replay --recovery-dir=/tmp/ck --checkpoint-every=32   (crash
//       tolerance: write-ahead journal + a snapshot every 32 scheduling
//       rounds; see DESIGN.md section 13)
//   ./trace_replay --recovery-dir=/tmp/ck --checkpoint-every=32 --restore
//       (resume a killed run from its last snapshot + journal; repeat the
//       same --checkpoint-every, since checkpoint records are journaled
//       and replay verification must regenerate them; metrics are
//       byte-identical to the uninterrupted run)
//   ./trace_replay --recovery-dir=/tmp/ck --checkpoint-every=32
//       --crash-at-event=100   (crash-injection harness: exits with code
//       42 at the Nth journaled event — also --crash-mid-snapshot=N and
//       --torn-tail=BYTES; the CI crash-recovery gate drives these)
//   ./trace_replay --codec-threads=4 --chunk-bytes=262144   (calibrate the
//       codec model against the real chunk-parallel data plane at this
//       thread count and chunk size before replaying; see DESIGN.md §14)
//   ./trace_replay --trace-out=/tmp/replay.json   (also record the newest
//       2^20 events as a Chrome trace; the metrics and CSVs are
//       byte-identical to the untraced replay)
//
// Exits 1 when an output file (--write_trace, --csv, --trace-out) cannot
// be written or --scheduler names no registered scheduler.
//
// Scheduler names: sim::scheduler_names() — e.g. FVDF, FVDF-NC,
// DEADLINE-FVDF, SEBF, AALO, FIFO, PFF, FAIR. An unknown name exits 1 with
// an error listing every registered scheduler.
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "codec/chunk.hpp"
#include "codec/synth_data.hpp"
#include "codec/throughput.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "cpu/cpu_model.hpp"
#include "obs/cli.hpp"
#include "recovery/recovery.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv);
  const std::unique_ptr<obs::Tracer> tracer = obs::tracer_from_flags(flags);

  workload::Trace trace;
  if (flags.has("trace")) {
    trace = workload::parse_trace_file(flags.get("trace", ""));
    std::cout << "loaded " << trace.coflows.size() << " coflows from "
              << flags.get("trace", "") << "\n";
  } else {
    workload::GeneratorConfig gen;
    gen.num_ports = static_cast<std::size_t>(flags.get_int("ports", 16));
    gen.num_coflows = static_cast<std::size_t>(flags.get_int("coflows", 60));
    gen.mean_interarrival = flags.get_double("interarrival", 0.5);
    gen.size_lo = 1e5;
    gen.size_hi = 1e9;
    gen.size_alpha = 0.15;
    gen.width_hi = static_cast<std::size_t>(flags.get_int("width", 6));
    gen.seed = static_cast<std::uint64_t>(flags.get_int("seed", 2));
    gen.deadline_fraction = flags.get_double("deadline-fraction", 0.0);
    gen.deadline_ref_bandwidth =
        common::mbps(flags.get_double("bandwidth_mbps", 100));
    gen.deadline_slack_lo = flags.get_double("deadline-slack-lo", 1.5);
    gen.deadline_slack_hi = flags.get_double("deadline-slack-hi", 4.0);
    trace = workload::generate_trace(gen);
  }

  if (flags.has("write_trace")) {
    const std::string path = flags.get("write_trace", "");
    std::ofstream out(path);
    workload::write_trace(out, trace);
    out.close();
    if (!out) {
      std::cerr << "cannot write trace to " << path << "\n";
      return 1;
    }
    std::cout << "wrote trace to " << path << "\n";
    return 0;
  }

  std::unique_ptr<sched::Scheduler> scheduler;
  try {
    scheduler = sim::make_scheduler(flags.get("scheduler", "FVDF"));
  } catch (const std::out_of_range& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  const common::Bps bandwidth =
      common::mbps(flags.get_double("bandwidth_mbps", 100));
  const fabric::Fabric fabric(trace.num_ports, bandwidth);
  const cpu::ConstantCpu cpu(flags.get_double("cpu_headroom", 0.9));

  sim::SimConfig config;
  config.slice = flags.get_double("slice_ms", 10.0) / 1000.0;
  if (flags.has("csv")) config.utilization_sample_period = 1.0;
  codec::CodecModel codec =
      codec::codec_model_by_name(flags.get("codec", "LZ4"));
  // --chunk-bytes / --codec-threads: calibrate the (R, xi) model against
  // the real chunk-parallel data plane (DESIGN.md section 14) instead of
  // the paper's table numbers — a 4 MiB mixed corpus round-trips through
  // swlz-balanced chunked at --chunk-bytes on a --codec-threads pool, and
  // the measured per-chunk throughput replaces the model's speeds. Absent
  // both flags, output is byte-identical to previous releases.
  if (flags.has("chunk-bytes") || flags.has("codec-threads")) {
    const auto chunk_bytes = static_cast<std::size_t>(flags.get_int(
        "chunk-bytes", static_cast<long>(codec::kDefaultChunkBytes)));
    const auto threads =
        static_cast<unsigned>(flags.get_int("codec-threads", 0));
    codec::ChunkPool pool(threads);
    codec::ThroughputLedger ledger;
    common::Rng rng(99);
    const codec::Buffer corpus = codec::mixed_bytes(4 << 20, rng, 0.3);
    const auto real = codec::make_codec(codec::CodecKind::kLzBalanced);
    const codec::Buffer frame =
        codec::chunk_compress(*real, corpus, chunk_bytes, &pool, &ledger);
    codec::chunk_decompress(frame, &pool, &ledger);
    codec = ledger.calibrate(codec);
    std::cout << "calibrated codec model: " << codec.name << " R="
              << common::fmt_double(codec.compress_speed / 1e6, 1)
              << " MB/s, decode "
              << common::fmt_double(codec.decompress_speed / 1e6, 1)
              << " MB/s, ratio " << common::fmt_double(codec.ratio, 3)
              << " (" << pool.size() << " codec threads, "
              << chunk_bytes / 1024 << " KiB chunks)\n";
  }
  config.codec = &codec;
  config.degradation.rate = flags.get_double("degrade-rate", 0.0);
  config.degradation.seed =
      static_cast<std::uint64_t>(flags.get_int("degrade-seed", 1));
  config.admission.enabled = flags.has("admission");

  // Crash tolerance (DESIGN.md section 13): --recovery-dir turns on the
  // write-ahead journal (+ snapshots with --checkpoint-every); --restore
  // resumes a killed run; the --crash-* flags are the injection harness
  // the CI crash-recovery gate drives (injected kills exit with code 42).
  config.recovery.dir = flags.get("recovery-dir", "");
  config.recovery.checkpoint_every =
      static_cast<std::uint64_t>(flags.get_int("checkpoint-every", 0));
  config.recovery.restore = flags.has("restore");
  recovery::CrashPlan crash;
  crash.kill_at_event =
      static_cast<std::uint64_t>(flags.get_int("crash-at-event", 0));
  crash.kill_mid_snapshot =
      static_cast<std::uint64_t>(flags.get_int("crash-mid-snapshot", 0));
  crash.torn_tail_bytes =
      static_cast<std::uint64_t>(flags.get_int("torn-tail", 0));
  if (crash.enabled()) config.recovery.crash = &crash;
  config.sink = tracer.get();

  sim::Metrics m;
  try {
    m = sim::run_simulation(trace, fabric, cpu, *scheduler, config);
  } catch (const recovery::CrashError& e) {
    std::cerr << "crashed (injected): " << e.what() << "\n";
    return 42;
  }

  std::cout << "replayed " << trace.coflows.size() << " coflows / "
            << trace.total_flows() << " flows under " << scheduler->name()
            << " @ " << flags.get_double("bandwidth_mbps", 100) << " Mbps, "
            << codec.name << " codec\n\n";
  common::Table table({"metric", "value"});
  table.add_row({"avg FCT", common::fmt_double(m.avg_fct(), 3) + " s"});
  table.add_row({"avg CCT", common::fmt_double(m.avg_cct(), 3) + " s"});
  table.add_row({"avg JCT", common::fmt_double(m.avg_jct(), 3) + " s"});
  // An empty trace, or one whose every coflow was rejected or shed, has no
  // CCT quantile.
  const common::Cdf ccts = m.cct_cdf();
  const std::string p95 =
      ccts.empty() ? "n/a" : common::fmt_double(ccts.quantile(0.95), 3) + " s";
  table.add_row({"p95 CCT", p95});
  table.add_row({"makespan", common::fmt_double(m.makespan(), 3) + " s"});
  table.add_row({"bytes offered", common::fmt_bytes(m.total_original_bytes())});
  table.add_row({"bytes on wire", common::fmt_bytes(m.total_wire_bytes())});
  table.add_row({"traffic reduction",
                 common::fmt_percent(m.traffic_reduction())});
  if (config.degradation.enabled()) {
    table.add_row({"capacity changes",
                   std::to_string(m.degradation.capacity_changes)});
    table.add_row({"link failures",
                   std::to_string(m.degradation.link_failures)});
    table.add_row({"stalled flow-slices",
                   std::to_string(m.degradation.stalled_flow_slices)});
    table.add_row({"compression flips",
                   std::to_string(m.degradation.compression_flips)});
  }
  if (m.deadline_coflows() > 0 || config.admission.enabled) {
    table.add_row({"deadline coflows", std::to_string(m.deadline_coflows())});
    table.add_row({"deadlines met", std::to_string(m.deadlines_met())});
    table.add_row({"deadline met fraction",
                   common::fmt_percent(m.deadline_met_fraction())});
    table.add_row({"goodput bytes", common::fmt_bytes(m.goodput_bytes())});
    if (config.admission.enabled) {
      table.add_row({"admitted / degraded / deferred",
                     std::to_string(m.slo.admitted) + " / " +
                         std::to_string(m.slo.degraded) + " / " +
                         std::to_string(m.slo.deferred)});
      table.add_row({"rejected at arrival", std::to_string(m.slo.rejected)});
      table.add_row({"shed mid-flight", std::to_string(m.slo.shed_midflight)});
      table.add_row({"shed bytes", common::fmt_bytes(m.slo.shed_bytes)});
    }
  }
  table.print(std::cout);

  bool wrote_all = true;
  if (flags.has("csv")) {
    const std::string base = flags.get("csv", "metrics");
    const auto write_csv = [&](const std::string& path,
                               void (*write)(std::ostream&,
                                             const sim::Metrics&)) {
      std::ofstream out(path);
      write(out, m);
      out.close();
      if (!out) {
        std::cerr << "cannot write " << path << "\n";
        wrote_all = false;
      }
    };
    write_csv(base + ".flows.csv", sim::write_flows_csv);
    write_csv(base + ".coflows.csv", sim::write_coflows_csv);
    write_csv(base + ".utilization.csv", sim::write_utilization_csv);
    if (wrote_all)
      std::cout << "\nwrote " << base
                << ".{flows,coflows,utilization}.csv\n";
  }
  if (tracer != nullptr) {
    if (obs::write_trace_from_flags(flags, *tracer))
      std::cout << "trace: " << tracer->size() << " events -> "
                << flags.get("trace-out", "") << "\n";
    else
      wrote_all = false;
  }
  return wrote_all ? 0 : 1;
}
