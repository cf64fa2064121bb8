// Crash-fault tolerance (DESIGN.md section 13): deterministic checkpoint/
// restore, the write-ahead event journal and kill-anywhere recovery.
//
// The contract guarded here is byte-identity: kill a run at any journaled
// event (or mid-snapshot, or with a torn journal tail), restore from the
// surviving files, and the final Metrics records equal the uninterrupted
// run's bit for bit — for every scheduler in the registry, both engine
// modes, and with the degradation + deadline/admission layers on. The
// loader fuzz tests additionally pin that corrupted snapshot/journal bytes
// surface as typed RecoveryError (never UB — CI runs this under
// ASan/UBSan/TSan).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "codec/checksum.hpp"
#include "codec/codec.hpp"
#include "codec/codec_model.hpp"
#include "core/admission.hpp"
#include "cpu/cpu_model.hpp"
#include "obs/trace.hpp"
#include "recovery/journal.hpp"
#include "recovery/recovery.hpp"
#include "recovery/snapshot.hpp"
#include "recovery/state_io.hpp"
#include "shed_idle_cases.hpp"
#include "sim/experiment.hpp"
#include "workload/generator.hpp"
#include "workload/trace.hpp"

namespace {

using namespace swallow;

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "swallow-recovery-XXXXXX")
            .string();
    char* made = ::mkdtemp(tmpl.data());
    if (made == nullptr) throw std::runtime_error("mkdtemp failed");
    path = made;
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string str() const { return path.string(); }
  std::string journal() const { return (path / "journal.swj").string(); }
};

workload::Trace make_trace(std::uint64_t seed, std::size_t coflows,
                           std::size_t ports, double deadline_fraction = 0) {
  workload::GeneratorConfig gen;
  gen.num_ports = ports;
  gen.num_coflows = coflows;
  gen.mean_interarrival = 0.3;
  gen.size_lo = 1e5;
  gen.size_hi = 2e8;
  gen.size_alpha = 0.2;
  gen.width_lo = 1;
  gen.width_hi = 5;
  gen.seed = seed;
  gen.deadline_fraction = deadline_fraction;
  gen.deadline_ref_bandwidth = common::mbps(150);
  return workload::generate_trace(gen);
}

sim::Metrics run_once(const workload::Trace& trace,
                      const fabric::Fabric& fabric,
                      const cpu::CpuProvider& cpu, const std::string& name,
                      const sim::SimConfig& config) {
  auto sched = sim::make_scheduler(name);  // fresh: schedulers are stateful
  return sim::run_simulation(trace, fabric, cpu, *sched, config);
}

std::optional<sim::Metrics> try_run(const workload::Trace& trace,
                                    const fabric::Fabric& fabric,
                                    const cpu::CpuProvider& cpu,
                                    const std::string& name,
                                    const sim::SimConfig& config) {
  try {
    return run_once(trace, fabric, cpu, name, config);
  } catch (const recovery::CrashError&) {
    return std::nullopt;
  }
}

// Exact (bitwise-value) comparison of every emitted record.
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
    EXPECT_EQ(a.coflows[i].rejected, b.coflows[i].rejected) << "coflow " << i;
  }
  ASSERT_EQ(a.utilization.size(), b.utilization.size());
  for (std::size_t i = 0; i < a.utilization.size(); ++i) {
    EXPECT_EQ(a.utilization[i].t, b.utilization[i].t);
    EXPECT_EQ(a.utilization[i].egress_utilization,
              b.utilization[i].egress_utilization);
  }
  EXPECT_EQ(a.degradation.capacity_changes, b.degradation.capacity_changes);
  EXPECT_EQ(a.degradation.link_failures, b.degradation.link_failures);
  EXPECT_EQ(a.degradation.stalled_flow_slices,
            b.degradation.stalled_flow_slices);
  EXPECT_EQ(a.degradation.compression_flips,
            b.degradation.compression_flips);
  EXPECT_EQ(a.slo.with_deadline, b.slo.with_deadline);
  EXPECT_EQ(a.slo.admitted, b.slo.admitted);
  EXPECT_EQ(a.slo.degraded, b.slo.degraded);
  EXPECT_EQ(a.slo.deferred, b.slo.deferred);
  EXPECT_EQ(a.slo.rejected, b.slo.rejected);
  EXPECT_EQ(a.slo.shed_midflight, b.slo.shed_midflight);
  EXPECT_EQ(a.slo.shed_bytes, b.slo.shed_bytes);
}

/// Journaled-event count of an uninterrupted run (no checkpoints, so the
/// count excludes kCheckpoint markers — kill points picked in [1, count]
/// always land inside the checkpointed run's longer stream).
std::uint64_t count_events(const workload::Trace& trace,
                           const fabric::Fabric& fabric,
                           const cpu::CpuProvider& cpu,
                           const std::string& name, sim::SimConfig config) {
  TempDir dir;
  config.recovery = {};
  config.recovery.dir = dir.str();
  config.recovery.checkpoint_every = 0;
  run_once(trace, fabric, cpu, name, config);
  return recovery::read_journal(dir.journal()).records.size();
}

/// Crashes a run at `plan`, restores from the surviving files, and returns
/// the recovered run's Metrics. Asserts the crash actually fired.
sim::Metrics kill_and_recover(const workload::Trace& trace,
                              const fabric::Fabric& fabric,
                              const cpu::CpuProvider& cpu,
                              const std::string& name, sim::SimConfig config,
                              const recovery::CrashPlan& plan,
                              std::uint64_t checkpoint_every,
                              const std::string& label) {
  TempDir dir;
  config.recovery = {};
  config.recovery.dir = dir.str();
  config.recovery.checkpoint_every = checkpoint_every;
  config.recovery.crash = &plan;
  const auto crashed = try_run(trace, fabric, cpu, name, config);
  EXPECT_FALSE(crashed.has_value()) << label << ": crash plan never fired";
  config.recovery.crash = nullptr;
  config.recovery.restore = true;
  return run_once(trace, fabric, cpu, name, config);
}

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------------------
// Kill-anywhere equivalence matrix
// ---------------------------------------------------------------------------

TEST(RecoveryMatrix, KillAnywhereEverySchedulerBothModes) {
  const workload::Trace trace = make_trace(31, 12, 6);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(150));
  const cpu::ConstantCpu cpu(0.85);
  for (const std::string& name : sim::scheduler_names()) {
    for (const sim::EngineMode mode :
         {sim::EngineMode::kEventDriven, sim::EngineMode::kSliceStepped}) {
      sim::SimConfig config;
      config.engine_mode = mode;
      config.codec = &codec::default_codec_model();
      const sim::Metrics clean = run_once(trace, fabric, cpu, name, config);
      const std::uint64_t events =
          count_events(trace, fabric, cpu, name, config);
      ASSERT_GT(events, 0u);
      for (const std::uint64_t kill :
           {std::uint64_t{1}, events / 2 + 1, events}) {
        recovery::CrashPlan plan;
        plan.kill_at_event = kill;
        const std::string label =
            name + (mode == sim::EngineMode::kEventDriven ? "/event" : "/slice") +
            "/kill=" + std::to_string(kill);
        const sim::Metrics recovered = kill_and_recover(
            trace, fabric, cpu, name, config, plan, 3, label);
        expect_identical(recovered, clean, label);
      }
    }
  }
}

TEST(RecoveryMatrix, KillAnywhereUnderDegradation) {
  const workload::Trace trace = make_trace(47, 16, 6);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(150));
  const cpu::ConstantCpu cpu(0.85);
  for (const std::string& name : {std::string("FVDF"),
                                  std::string("DEADLINE-FVDF")}) {
    for (const sim::EngineMode mode :
         {sim::EngineMode::kEventDriven, sim::EngineMode::kSliceStepped}) {
      sim::SimConfig config;
      config.engine_mode = mode;
      config.codec = &codec::default_codec_model();
      config.utilization_sample_period = 0.5;
      config.degradation.rate = 0.12;
      config.degradation.seed = 9;
      config.degradation.failure_fraction = 0.3;
      const sim::Metrics clean = run_once(trace, fabric, cpu, name, config);
      const std::uint64_t events =
          count_events(trace, fabric, cpu, name, config);
      ASSERT_GT(events, 4u);
      for (std::uint64_t kill = 1; kill <= events;
           kill += std::max<std::uint64_t>(1, events / 6)) {
        recovery::CrashPlan plan;
        plan.kill_at_event = kill;
        const std::string label =
            name + (mode == sim::EngineMode::kEventDriven ? "/event" : "/slice") +
            "/degrade/kill=" + std::to_string(kill);
        const sim::Metrics recovered = kill_and_recover(
            trace, fabric, cpu, name, config, plan, 2, label);
        expect_identical(recovered, clean, label);
      }
    }
  }
}

TEST(RecoveryMatrix, RestoreInsideALinkFailureKeepsTheStallCensus) {
  // Every kill point, one snapshot per round, on a fabric whose episodes
  // are all link failures: many restores land while a failed link pins
  // idle flows. A restored run re-snapshots its segment without a round,
  // so the stall census that round counted must come back with the
  // segment's member list.
  const workload::Trace trace = make_trace(61, 12, 6);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(150));
  const cpu::ConstantCpu cpu(0.85);
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();
  config.degradation.rate = 0.3;
  config.degradation.seed = 4;
  config.degradation.failure_fraction = 1.0;
  config.degradation.flap_fraction = 0.0;
  const sim::Metrics clean = run_once(trace, fabric, cpu, "FVDF", config);
  ASSERT_GT(clean.degradation.stalled_flow_slices, 0u);
  const std::uint64_t events =
      count_events(trace, fabric, cpu, "FVDF", config);
  for (std::uint64_t kill = 1; kill <= events; ++kill) {
    recovery::CrashPlan plan;
    plan.kill_at_event = kill;
    const std::string label = "stall/kill=" + std::to_string(kill);
    const sim::Metrics recovered =
        kill_and_recover(trace, fabric, cpu, "FVDF", config, plan, 1, label);
    expect_identical(recovered, clean, label);
  }
}

TEST(RecoveryMatrix, KillAnywhereDeadlinesAdmissionShedding) {
  const workload::Trace trace = make_trace(53, 18, 6, /*deadline=*/0.6);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(150));
  const cpu::ConstantCpu cpu(0.85);
  for (const std::string& name : {std::string("FVDF"),
                                  std::string("DEADLINE-FVDF")}) {
    for (const sim::EngineMode mode :
         {sim::EngineMode::kEventDriven, sim::EngineMode::kSliceStepped}) {
      sim::SimConfig config;
      config.engine_mode = mode;
      config.codec = &codec::default_codec_model();
      config.admission.enabled = true;
      config.degradation.rate = 0.1;
      config.degradation.seed = 5;
      const sim::Metrics clean = run_once(trace, fabric, cpu, name, config);
      // The SLO layer must actually be exercised for the sweep to mean
      // anything.
      ASSERT_GT(clean.slo.with_deadline, 0u);
      const std::uint64_t events =
          count_events(trace, fabric, cpu, name, config);
      for (std::uint64_t kill = 1; kill <= events;
           kill += std::max<std::uint64_t>(1, events / 6)) {
        recovery::CrashPlan plan;
        plan.kill_at_event = kill;
        const std::string label =
            name + (mode == sim::EngineMode::kEventDriven ? "/event" : "/slice") +
            "/slo/kill=" + std::to_string(kill);
        const sim::Metrics recovered = kill_and_recover(
            trace, fabric, cpu, name, config, plan, 2, label);
        expect_identical(recovered, clean, label);
      }
    }
  }
}

TEST(RecoveryMatrix, KillAnywhereAroundAShedThatEmptiesTheFabric) {
  // A mid-flight shed (deadline expiry, capacity-change re-price) removes
  // the last active coflow while another is still to arrive, and the
  // engine idles to that arrival. Each case also runs without its last
  // coflow, so the shed leaves nothing to arrive and the run ends there.
  // Every kill point, one snapshot per round.
  const fabric::Fabric fabric(2, shed_idle::kBandwidth);
  const cpu::ConstantCpu cpu(0.9);
  std::vector<shed_idle::Case> cases;
  for (shed_idle::Case c :
       {shed_idle::expiry_shed(), shed_idle::reprice_shed()}) {
    cases.push_back(c);
    c.trace.coflows.pop_back();
    cases.push_back(c);
  }
  for (const shed_idle::Case& c : cases) {
    for (const sim::EngineMode mode :
         {sim::EngineMode::kEventDriven, sim::EngineMode::kSliceStepped}) {
      sim::SimConfig config = c.config;
      config.engine_mode = mode;
      const sim::Metrics clean =
          run_once(c.trace, fabric, cpu, c.scheduler, config);
      ASSERT_EQ(clean.slo.shed_midflight, 1u);
      const std::uint64_t events =
          count_events(c.trace, fabric, cpu, c.scheduler, config);
      for (std::uint64_t kill = 1; kill <= events; ++kill) {
        recovery::CrashPlan plan;
        plan.kill_at_event = kill;
        const std::string label =
            c.scheduler + "/" + std::to_string(c.trace.coflows.size()) +
            " coflows" +
            (mode == sim::EngineMode::kEventDriven ? "/event" : "/slice") +
            "/kill=" + std::to_string(kill);
        const sim::Metrics recovered = kill_and_recover(
            c.trace, fabric, cpu, c.scheduler, config, plan, 1, label);
        expect_identical(recovered, clean, label);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Crash shapes beyond a clean event kill
// ---------------------------------------------------------------------------

TEST(RecoveryCrash, MidSnapshotCrashFallsBackToPreviousSnapshot) {
  const workload::Trace trace = make_trace(61, 14, 6);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(150));
  const cpu::ConstantCpu cpu(0.85);
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();
  const sim::Metrics clean = run_once(trace, fabric, cpu, "FVDF", config);
  for (const std::uint64_t nth : {std::uint64_t{1}, std::uint64_t{2}}) {
    recovery::CrashPlan plan;
    plan.kill_mid_snapshot = nth;
    const std::string label = "mid-snapshot #" + std::to_string(nth);
    const sim::Metrics recovered =
        kill_and_recover(trace, fabric, cpu, "FVDF", config, plan, 2, label);
    expect_identical(recovered, clean, label);
  }
}

TEST(RecoveryCrash, TornJournalTailIsTruncatedAndReplayed) {
  const workload::Trace trace = make_trace(67, 14, 6);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(150));
  const cpu::ConstantCpu cpu(0.85);
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();
  const sim::Metrics clean = run_once(trace, fabric, cpu, "FVDF", config);
  const std::uint64_t events =
      count_events(trace, fabric, cpu, "FVDF", config);
  // Tear a few bytes (partial final record) and more than the whole file
  // (journal gone entirely — the snapshot alone must still recover).
  for (const std::uint64_t torn : {std::uint64_t{7}, std::uint64_t{1} << 40}) {
    recovery::CrashPlan plan;
    plan.kill_at_event = events / 2 + 1;
    plan.torn_tail_bytes = torn;
    const std::string label = "torn=" + std::to_string(torn);
    const sim::Metrics recovered =
        kill_and_recover(trace, fabric, cpu, "FVDF", config, plan, 2, label);
    expect_identical(recovered, clean, label);
  }
}

TEST(RecoveryCrash, CrashBeforeFirstCheckpointColdStarts) {
  const workload::Trace trace = make_trace(71, 12, 6);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(150));
  const cpu::ConstantCpu cpu(0.85);
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();
  const sim::Metrics clean = run_once(trace, fabric, cpu, "FVDF", config);
  recovery::CrashPlan plan;
  plan.kill_at_event = 3;
  // checkpoint_every far beyond the run: no snapshot ever lands, restore
  // must cold-start and verify the whole journal.
  const sim::Metrics recovered = kill_and_recover(
      trace, fabric, cpu, "FVDF", config, plan, 100000, "cold start");
  expect_identical(recovered, clean, "cold start");
}

TEST(RecoveryCrash, RepeatedKillsAcrossRestores) {
  const workload::Trace trace = make_trace(73, 16, 6, /*deadline=*/0.5);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(150));
  const cpu::ConstantCpu cpu(0.85);
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();
  config.admission.enabled = true;
  config.degradation.rate = 0.1;
  config.degradation.seed = 3;
  const sim::Metrics clean =
      run_once(trace, fabric, cpu, "DEADLINE-FVDF", config);
  const std::uint64_t events =
      count_events(trace, fabric, cpu, "DEADLINE-FVDF", config);

  TempDir dir;
  config.recovery.dir = dir.str();
  config.recovery.checkpoint_every = 2;
  recovery::CrashPlan first;
  first.kill_at_event = events / 3 + 1;
  config.recovery.crash = &first;
  EXPECT_FALSE(
      try_run(trace, fabric, cpu, "DEADLINE-FVDF", config).has_value());

  // Second life crashes again — early enough that it dies while still
  // verifying the journal suffix of its first life.
  config.recovery.restore = true;
  recovery::CrashPlan second;
  second.kill_at_event = 2;
  config.recovery.crash = &second;
  EXPECT_FALSE(
      try_run(trace, fabric, cpu, "DEADLINE-FVDF", config).has_value());

  config.recovery.crash = nullptr;
  const sim::Metrics recovered =
      run_once(trace, fabric, cpu, "DEADLINE-FVDF", config);
  expect_identical(recovered, clean, "third life");
}

TEST(RecoveryCrash, RestoreAfterCompletedRunReplaysCleanly) {
  const workload::Trace trace = make_trace(79, 12, 6);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(150));
  const cpu::ConstantCpu cpu(0.85);
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();
  TempDir dir;
  config.recovery.dir = dir.str();
  config.recovery.checkpoint_every = 3;
  const sim::Metrics clean = run_once(trace, fabric, cpu, "FVDF", config);
  config.recovery.restore = true;
  const sim::Metrics replayed = run_once(trace, fabric, cpu, "FVDF", config);
  expect_identical(replayed, clean, "replay of a completed run");
}

TEST(RecoveryCrash, PersistenceDoesNotPerturbTheSimulation) {
  // Checkpointing + journaling on vs fully off: byte-identical Metrics.
  const workload::Trace trace = make_trace(83, 14, 6, /*deadline=*/0.4);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(150));
  const cpu::ConstantCpu cpu(0.85);
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();
  config.admission.enabled = true;
  config.degradation.rate = 0.1;
  config.degradation.seed = 11;
  const sim::Metrics off = run_once(trace, fabric, cpu, "FVDF", config);
  TempDir dir;
  config.recovery.dir = dir.str();
  config.recovery.checkpoint_every = 2;
  const sim::Metrics on = run_once(trace, fabric, cpu, "FVDF", config);
  expect_identical(on, off, "persistence on vs off");
  EXPECT_TRUE(std::filesystem::exists(dir.journal()));
}

/// Rounds of the checkpoints a journal records, in order.
std::vector<std::uint64_t> checkpoint_rounds(const std::string& journal) {
  std::vector<std::uint64_t> rounds;
  for (const recovery::JournalRecord& rec :
       recovery::read_journal(journal).records)
    if (rec.type == recovery::JournalType::kCheckpoint) rounds.push_back(rec.a);
  return rounds;
}

std::vector<std::string> snapshot_files(const TempDir& dir) {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path))
    if (entry.path().extension() == ".swsnap")
      files.push_back(entry.path().string());
  std::sort(files.begin(), files.end());
  return files;
}

TEST(RecoveryCrash, KeepsNewestTwoAndFallsBackPastACorruptNewest) {
  const workload::Trace trace = make_trace(97, 16, 6);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(150));
  const cpu::ConstantCpu cpu(0.85);
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();
  const sim::Metrics clean = run_once(trace, fabric, cpu, "FVDF", config);
  const std::uint64_t events =
      count_events(trace, fabric, cpu, "FVDF", config);

  // An uninterrupted journaled run leaves exactly its two newest snapshots.
  {
    TempDir dir;
    config.recovery.dir = dir.str();
    config.recovery.checkpoint_every = 4;
    run_once(trace, fabric, cpu, "FVDF", config);
    const std::vector<std::uint64_t> rounds = checkpoint_rounds(dir.journal());
    ASSERT_GE(rounds.size(), 3u) << "too few checkpoints to prune any";
    EXPECT_EQ(snapshot_files(dir),
              (std::vector<std::string>{
                  recovery::snapshot_path(dir.str(), rounds.end()[-2]),
                  recovery::snapshot_path(dir.str(), rounds.back())}));
  }

  // Crash late, corrupt one payload byte of the newest snapshot, restore.
  TempDir dir;
  config.recovery.dir = dir.str();
  config.recovery.checkpoint_every = 4;
  recovery::CrashPlan plan;
  plan.kill_at_event = events;
  config.recovery.crash = &plan;
  ASSERT_FALSE(try_run(trace, fabric, cpu, "FVDF", config).has_value());
  const std::vector<std::uint64_t> rounds = checkpoint_rounds(dir.journal());
  ASSERT_GE(rounds.size(), 3u);
  const std::string newest =
      recovery::snapshot_path(dir.str(), rounds.back());
  const std::uint64_t older = rounds.end()[-2];
  ASSERT_EQ(snapshot_files(dir),
            (std::vector<std::string>{
                recovery::snapshot_path(dir.str(), older), newest}));
  std::vector<std::uint8_t> bytes = slurp(newest);
  bytes[24 + (bytes.size() - 32) / 2] ^= 0x10;
  spit(newest, bytes);

  // The restore must load the older snapshot and then verify every journal
  // record written after that snapshot's checkpoint marker.
  const recovery::JournalScan journal = recovery::read_journal(dir.journal());
  std::uint64_t suffix = 0;
  for (const recovery::JournalRecord& rec : journal.records)
    if (rec.type == recovery::JournalType::kCheckpoint && rec.a == older)
      suffix = journal.records.size() - (rec.seq + 1);
  ASSERT_GT(suffix, 0u);
  obs::Tracer tracer;
  config.recovery.crash = nullptr;
  config.recovery.restore = true;
  config.sink = &tracer;
  const sim::Metrics recovered = run_once(trace, fabric, cpu, "FVDF", config);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> restores;
  for (const obs::TraceEvent& ev : tracer.events())
    if (std::string_view(ev.name) == "restore") {
      ASSERT_EQ(std::string_view(ev.args[0].key), "seq");
      ASSERT_EQ(std::string_view(ev.args[1].key), "journal_suffix");
      restores.emplace_back(std::get<std::uint64_t>(ev.args[0].value),
                            std::get<std::uint64_t>(ev.args[1].value));
    }
  EXPECT_EQ(restores,
            (std::vector<std::pair<std::uint64_t, std::uint64_t>>{
                {older, suffix}}));
  expect_identical(recovered, clean, "restore past a corrupt newest snapshot");
}

// ---------------------------------------------------------------------------
// Loader hardening: corrupted inputs are typed errors, never UB
// ---------------------------------------------------------------------------

TEST(RecoveryFuzz, SnapshotLoaderSurvivesTruncationAndBitFlips) {
  TempDir dir;
  recovery::StateWriter payload;
  for (int i = 0; i < 400; ++i) payload.f64(i * 1.25);
  recovery::SnapshotMeta meta;
  meta.seq = 7;
  meta.fingerprint = 0x1234abcd;
  recovery::StateWriter image;
  recovery::begin_snapshot(image, meta);
  image.bytes(payload.buffer());
  recovery::write_snapshot(dir.str(), image);
  const std::string path = recovery::snapshot_path(dir.str(), 7);
  const std::vector<std::uint8_t> valid = slurp(path);
  ASSERT_EQ(valid.size(), 24 + payload.size() + 8);

  // Sanity: the untouched file parses and checks its fingerprint.
  const recovery::LoadedSnapshot back =
      recovery::read_snapshot(path, meta.fingerprint);
  EXPECT_EQ(back.meta.seq, 7u);
  EXPECT_TRUE(std::ranges::equal(back.payload, payload.buffer()));
  EXPECT_THROW(recovery::read_snapshot(path, meta.fingerprint + 1),
               recovery::RecoveryError);

  // Every truncation length must fail as RecoveryError.
  const std::string mangled = (dir.path / "mangled.swsnap").string();
  for (std::size_t len = 0; len < valid.size(); len += 3) {
    spit(mangled, {valid.begin(), valid.begin() + len});
    EXPECT_THROW(recovery::read_snapshot(mangled), recovery::RecoveryError)
        << "truncated to " << len;
  }

  // So must trailing bytes.
  std::vector<std::uint8_t> longer = valid;
  longer.push_back(0);
  spit(mangled, longer);
  EXPECT_THROW(recovery::read_snapshot(mangled), recovery::RecoveryError);

  // Every single-bit flip anywhere in the file, header and checksum
  // included, must fail typed, even with the fingerprint check off: the
  // whole-file checksum covers `seq` and the fingerprint too.
  for (std::size_t off = 0; off < valid.size(); ++off) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> flipped = valid;
      flipped[off] ^= std::uint8_t(1u << bit);
      spit(mangled, flipped);
      EXPECT_THROW(recovery::read_snapshot(mangled), recovery::RecoveryError)
          << "bit " << bit << " of byte " << off;
    }
  }

  // Version skew: patch the u32 version field (after magic + u64 seq) and
  // expect a typed failure with a meaningful offset.
  std::vector<std::uint8_t> skewed = valid;
  skewed[12] = std::uint8_t(recovery::kSnapshotVersion + 1);
  spit(mangled, skewed);
  try {
    (void)recovery::read_snapshot(mangled);
    FAIL() << "version skew accepted";
  } catch (const recovery::RecoveryError& e) {
    EXPECT_NE(e.offset(), recovery::RecoveryError::npos);
  }

  // A version-1 file (FNV-1a block checksums) is refused at its version
  // field, before any checksum is compared.
  skewed[12] = 1;
  spit(mangled, skewed);
  try {
    (void)recovery::read_snapshot(mangled);
    FAIL() << "version-1 snapshot accepted";
  } catch (const recovery::RecoveryError& e) {
    EXPECT_EQ(e.offset(), 12u);
  }

  // So are version-2 and version-3 files: the same header, then bytes the
  // loader never reads (the payload here; version 2 stored an LZ frame of
  // it, version 3 one more byte per flow).
  for (const std::uint32_t version : {2u, 3u}) {
    recovery::StateWriter old;
    old.bytes(std::span(valid).first(12));  // magic, seq
    old.u32(version);
    old.u64(meta.fingerprint);
    old.bytes(payload.buffer());
    const std::span<const std::uint8_t> old_bytes = old.buffer();
    spit(mangled, {old_bytes.begin(), old_bytes.end()});
    try {
      (void)recovery::read_snapshot(mangled, meta.fingerprint);
      FAIL() << "version-" << version << " snapshot accepted";
    } catch (const recovery::RecoveryError& e) {
      EXPECT_EQ(e.offset(), 12u);
    }
  }
}

TEST(RecoveryFuzz, JournalLoaderSurvivesTruncationAndBitFlips) {
  TempDir dir;
  {
    recovery::JournalWriter w;
    w.open(dir.journal());
    for (std::uint64_t i = 0; i < 50; ++i) {
      recovery::JournalRecord rec;
      rec.seq = i;
      rec.type = recovery::JournalType::kArrival;
      rec.time = 0.25 * double(i);
      rec.a = i;
      rec.b = i * 3;
      rec.x = 1.0 / double(i + 1);
      w.append(rec);
    }
  }
  const std::vector<std::uint8_t> valid = slurp(dir.journal());
  const recovery::JournalScan full = recovery::read_journal(dir.journal());
  ASSERT_EQ(full.records.size(), 50u);
  EXPECT_FALSE(full.torn);
  EXPECT_EQ(full.valid_bytes, valid.size());

  // A truncated journal is the normal crash signature: it must always scan
  // cleanly to a prefix (possibly torn), never throw, never over-read.
  const std::string mangled = (dir.path / "mangled.swj").string();
  for (std::size_t len = 0; len < valid.size(); len += 3) {
    spit(mangled, {valid.begin(), valid.begin() + len});
    const recovery::JournalScan scan = recovery::read_journal(mangled);
    EXPECT_LE(scan.valid_bytes, len);
    EXPECT_LE(scan.records.size(), 50u);
    for (std::size_t i = 0; i < scan.records.size(); ++i)
      EXPECT_EQ(scan.records[i].seq, i);
    recovery::truncate_torn_tail(mangled, scan);
    EXPECT_EQ(std::filesystem::file_size(mangled), scan.valid_bytes);
  }

  // Bit flips: a flipped tail reads as torn; a flipped middle is real
  // damage and must throw typed. Either way: no UB, no other exception.
  for (std::size_t off = 0; off < valid.size(); off += 7) {
    std::vector<std::uint8_t> flipped = valid;
    flipped[off] ^= std::uint8_t(1u << (off % 8));
    spit(mangled, flipped);
    try {
      const recovery::JournalScan scan = recovery::read_journal(mangled);
      EXPECT_LE(scan.records.size(), 50u);
    } catch (const recovery::RecoveryError&) {
      // expected shape for mid-file damage
    }
  }
}

TEST(RecoveryJournal, RecordBytesArePinned) {
  // The on-disk record format that existing journals and
  // tools/count_journal.py rely on, pinned byte for byte.
  recovery::JournalRecord rec;
  rec.seq = 0x0102030405060708ull;
  rec.type = recovery::JournalType::kAdmissionVerdict;
  rec.time = 1.5;
  rec.a = 42;
  rec.b = 3;
  rec.x = -0.25;
  TempDir dir;
  recovery::JournalWriter w;
  w.open(dir.journal());
  w.append(rec);
  w.close();
  const std::vector<std::uint8_t> golden = {
      0x29, 0x00, 0x00, 0x00,                          // u32le 41
      0x87, 0x6b, 0x65, 0x6a, 0xe5, 0xee, 0x55, 0xbc,  // XXH64 of payload
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // seq
      0x05,                                            // kAdmissionVerdict
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f,  // time 1.5
      0x2a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // a 42
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // b 3
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0xbf,  // x -0.25
  };
  EXPECT_EQ(slurp(dir.journal()), golden);
  const recovery::JournalScan scan = recovery::read_journal(dir.journal());
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0], rec);
}

/// The two snapshot files a run leaves when it is killed halfway through
/// its journaled events, in file-name order.
std::vector<std::vector<std::uint8_t>> midrun_snapshots(
    const workload::Trace& trace, const fabric::Fabric& fabric,
    const cpu::CpuProvider& cpu, const std::string& name,
    sim::SimConfig config) {
  recovery::CrashPlan plan;
  plan.kill_at_event = count_events(trace, fabric, cpu, name, config) / 2;
  TempDir dir;
  config.recovery.dir = dir.str();
  config.recovery.checkpoint_every = 2;
  config.recovery.crash = &plan;
  EXPECT_FALSE(try_run(trace, fabric, cpu, name, config).has_value());
  std::vector<std::vector<std::uint8_t>> files;
  for (const std::string& path : snapshot_files(dir))
    files.push_back(slurp(path));
  return files;
}

TEST(RecoverySnapshot, FileBytesArePinned) {
  // The snapshot layout, pinned by the XXH64 of whole files: the engine's
  // sections, the admission commitments and both FVDF schedulers' priority
  // classes. The digests assume no FMA contraction (see the build flags).
  const cpu::ConstantCpu cpu(0.85);
  {
    SCOPED_TRACE("DEADLINE-FVDF, admission, degradation");
    const workload::Trace trace = make_trace(53, 18, 6, /*deadline=*/0.6);
    const fabric::Fabric fabric(trace.num_ports, common::mbps(150));
    sim::SimConfig config;
    config.codec = &codec::default_codec_model();
    config.admission.enabled = true;
    config.degradation.rate = 0.1;
    config.degradation.seed = 5;
    const sim::Metrics clean =
        run_once(trace, fabric, cpu, "DEADLINE-FVDF", config);
    ASSERT_GT(clean.slo.admitted, 0u);
    ASSERT_GT(clean.degradation.capacity_changes, 0u);
    const auto files =
        midrun_snapshots(trace, fabric, cpu, "DEADLINE-FVDF", config);
    ASSERT_EQ(files.size(), 2u);
    EXPECT_EQ(files[0].size(), 4116u);
    EXPECT_EQ(codec::checksum64(files[0]), 0xbb03823b564e4be3ull);
    EXPECT_EQ(files[1].size(), 4484u);
    EXPECT_EQ(codec::checksum64(files[1]), 0x18e5e8f6fbb78cfeull);
  }
  {
    SCOPED_TRACE("FVDF");
    const workload::Trace trace = make_trace(31, 12, 6);
    const fabric::Fabric fabric(trace.num_ports, common::mbps(150));
    sim::SimConfig config;
    config.codec = &codec::default_codec_model();
    const auto files = midrun_snapshots(trace, fabric, cpu, "FVDF", config);
    ASSERT_EQ(files.size(), 2u);
    EXPECT_EQ(files[0].size(), 2683u);
    EXPECT_EQ(codec::checksum64(files[0]), 0xb766dcb29dd25452ull);
    EXPECT_EQ(files[1].size(), 2707u);
    EXPECT_EQ(codec::checksum64(files[1]), 0x8c80d74314f7bef1ull);
  }
}

// ---------------------------------------------------------------------------
// Restore-side checks: checksum-valid snapshots with damaged state
// ---------------------------------------------------------------------------

/// The newest mid-run snapshot of the pinned DEADLINE-FVDF run (admission
/// and degradation on), whose state fills every engine section. rejects()
/// seals an edited payload as a valid snapshot file, so the file checks
/// all pass and only the state restore can refuse it.
struct SloSnapshot {
  workload::Trace trace = make_trace(53, 18, 6, /*deadline=*/0.6);
  fabric::Fabric fabric{trace.num_ports, common::mbps(150)};
  cpu::ConstantCpu cpu{0.85};
  sim::SimConfig config;
  recovery::SnapshotMeta meta;
  std::vector<std::uint8_t> payload;

  SloSnapshot() {
    config.codec = &codec::default_codec_model();
    config.admission.enabled = true;
    config.degradation.rate = 0.1;
    config.degradation.seed = 5;
    TempDir dir;
    const std::string path = (dir.path / "newest").string();
    spit(path,
         midrun_snapshots(trace, fabric, cpu, "DEADLINE-FVDF", config).back());
    recovery::LoadedSnapshot snap = recovery::read_snapshot(path);
    meta = snap.meta;
    payload = std::move(snap.payload);
  }

  /// True when restoring a run from `edited` throws RecoveryError; false
  /// when the restored run completes.
  bool rejects(std::span<const std::uint8_t> edited) const {
    TempDir dir;
    recovery::StateWriter image;
    recovery::begin_snapshot(image, meta);
    image.bytes(edited);
    recovery::write_snapshot(dir.str(), image);
    sim::SimConfig restore = config;
    restore.recovery.dir = dir.str();
    restore.recovery.checkpoint_every = 2;
    restore.recovery.restore = true;
    try {
      run_once(trace, fabric, cpu, "DEADLINE-FVDF", restore);
    } catch (const recovery::RecoveryError&) {
      return true;
    }
    return false;
  }

  /// Payload offset of the first byte past the four-byte section tag.
  std::size_t section(const char* tag) const {
    const auto it = std::search(payload.begin(), payload.end(), tag, tag + 4);
    EXPECT_NE(it, payload.end()) << "no section " << tag;
    return static_cast<std::size_t>(it - payload.begin()) + 4;
  }

  std::uint64_t get(std::size_t at, int width) const {
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i)
      v |= std::uint64_t(payload.at(at + i)) << (8 * i);
    return v;
  }

  /// The payload with the `width`-byte little-endian field at `at` set.
  std::vector<std::uint8_t> with(std::size_t at, int width,
                                 std::uint64_t v) const {
    std::vector<std::uint8_t> edited = payload;
    for (int i = 0; i < width; ++i)
      edited.at(at + i) = std::uint8_t(v >> (8 * i));
    return edited;
  }
};

TEST(RecoveryFuzz, EngineRestoreRejectsEveryTruncation) {
  const SloSnapshot snap;
  EXPECT_FALSE(snap.rejects(snap.payload)) << "the intact payload";
  for (std::size_t len = 0; len < snap.payload.size(); ++len)
    ASSERT_TRUE(snap.rejects(std::span(snap.payload).first(len)))
        << "truncated to " << len << " of " << snap.payload.size();
}

TEST(RecoveryFuzz, EngineRestoreRejectsCorruptCountsAndIndices) {
  const SloSnapshot snap;
  const std::uint64_t coflows = snap.trace.coflows.size();
  ASSERT_GT(snap.get(snap.section("ACTV"), 8), 0u);
  ASSERT_GT(snap.get(snap.section("EXPH"), 8), 0u);
  struct Edit {
    const char* what;
    std::size_t at;
    int width;
    std::uint64_t value;
  };
  const auto plus_one = [&](std::size_t at, int width) {
    return snap.get(at, width) + 1;
  };
  const std::size_t engn = snap.section("ENGN");
  const std::size_t flws = snap.section("FLWS");
  const std::size_t cofl = snap.section("COFL");
  const std::size_t actv = snap.section("ACTV");
  const std::size_t exph = snap.section("EXPH");
  const std::size_t fabr = snap.section("FABR");
  const std::size_t util = snap.section("UTIL");
  const std::size_t adms = snap.section("ADMS");
  const std::size_t schd = snap.section("SCHD");
  const std::vector<Edit> edits = {
      {"arrival cursor", engn + 5 * 8, 8, coflows + 1},
      {"flow count", flws, 8, plus_one(flws, 8)},
      {"coflow count", cofl, 8, plus_one(cofl, 8)},
      {"first SLO class", cofl + 8 + 16, 1, 0xff},
      {"first unfinished count", cofl + 8 + 17, 8, std::uint64_t{1} << 32},
      {"active count", actv, 8, plus_one(actv, 8)},
      {"first active index", actv + 8, 8, coflows},
      {"expiry count", exph, 8, plus_one(exph, 8)},
      {"first expiry index", exph + 16, 8, coflows},
      {"port count", fabr, 8, plus_one(fabr, 8)},
      {"first port multiplier", fabr + 8, 8, std::bit_cast<std::uint64_t>(1.5)},
      {"sample count", util, 8, plus_one(util, 8)},
      {"admission flag", adms, 1, 0},
      {"admission port count", adms + 1, 8, plus_one(adms + 1, 8)},
      {"scheduler name length", schd, 4, plus_one(schd, 4)},
  };
  for (const Edit& e : edits)
    EXPECT_TRUE(snap.rejects(snap.with(e.at, e.width, e.value))) << e.what;
  for (const char* tag : {"ENGN", "FLWS", "RATE", "COFL", "ACTV", "EXPH",
                          "FABR", "UTIL", "DSTA", "SSTA", "ADMS", "SCHD",
                          "END!"}) {
    const std::size_t at = snap.section(tag) - 4;
    EXPECT_TRUE(snap.rejects(snap.with(at, 1, snap.get(at, 1) ^ 0x20)))
        << "tag " << tag;
  }
}

TEST(RecoveryGuard, OutOfRangeAdmissionIdsAreRejected) {
  // A snapshot whose admission section names a port, flow or coflow the
  // run does not have: the restore must refuse it rather than leave
  // release(), the EDF demand bound or re-pricing to index past the
  // commitment tables, the flow pool or the coflow pool later.
  const SloSnapshot snap;
  const std::size_t body = snap.section("ADMS") + 1;  // past the flag
  recovery::StateReader r(std::span(snap.payload).subspan(body));
  std::size_t first_flow = 0;
  for (int side = 0; side < 2; ++side)
    for (std::uint64_t port = r.u64(); port > 0; --port)
      for (std::uint64_t demand = r.u64(); demand > 0; --demand) {
        r.f64();  // deadline
        r.u64();  // coflow
        std::uint64_t flows = r.u64();
        if (flows > 0 && first_flow == 0) first_flow = body + r.offset();
        for (; flows > 0; --flows) r.u64();
      }
  ASSERT_NE(first_flow, 0u) << "no committed demand";
  ASSERT_GT(r.u64(), 0u) << "no commitment";
  const std::size_t commitment = body + r.offset();
  ASSERT_GT(snap.get(commitment + 8, 8), 0u) << "no committed ingress port";

  EXPECT_FALSE(snap.rejects(snap.payload)) << "the intact payload";
  EXPECT_TRUE(snap.rejects(
      snap.with(first_flow, 8, snap.trace.total_flows())))
      << "demand flow id";
  EXPECT_TRUE(snap.rejects(snap.with(commitment + 16, 8, snap.trace.num_ports)))
      << "commitment port";
  EXPECT_TRUE(
      snap.rejects(snap.with(commitment, 8, snap.trace.coflows.size())))
      << "commitment coflow id";
}

TEST(RecoveryFuzz, AdmissionStateSurvivesTruncationAndBitFlips) {
  // Restored directly from damaged bytes, an AdmissionController either
  // restores or throws RecoveryError. One that restores must then reprice,
  // admit and release without indexing out of bounds (ASan checks this).
  const fabric::Fabric fabric(4, common::mbps(100));
  const cpu::ConstantCpu cpu(1.0);
  std::vector<fabric::Flow> flows;
  std::vector<fabric::Coflow> coflows;
  for (fabric::CoflowId id = 0; id < 6; ++id) {
    fabric::Coflow c;
    c.id = id;
    c.deadline = 2.0 + double(id);
    for (fabric::PortId k = 0; k < 2; ++k) {
      fabric::Flow f;
      f.id = flows.size();
      f.coflow = id;
      f.src = (id + k) % 4;
      f.dst = (id + k + 1) % 4;
      f.original_bytes = f.raw_remaining = common::mbps(100) * 0.05;
      f.compressible = false;
      c.flows.push_back(f.id);
      flows.push_back(f);
    }
    coflows.push_back(c);
  }
  core::AdmissionConfig cfg;
  cfg.enabled = true;
  core::AdmissionController original(cfg, fabric);
  for (const fabric::Coflow& c : coflows)
    ASSERT_EQ(original.admit(c, flows, fabric, cpu, nullptr, 0.0).verdict,
              core::AdmissionVerdict::kAdmit);
  original.release(2);
  recovery::StateWriter w;
  original.save_state(w, coflows.size(), flows.size());
  const std::vector<std::uint8_t> valid(w.buffer().begin(),
                                        w.buffer().end());

  // Restores `bytes` into a fresh controller and, if that succeeds, drives
  // every path that indexes with a restored id. Returns whether it did.
  const auto restore_and_use = [&](std::span<const std::uint8_t> bytes) {
    core::AdmissionController ctl(cfg, fabric);
    recovery::StateReader r(bytes);
    try {
      ctl.restore_state(r, coflows.size(), flows.size());
    } catch (const recovery::RecoveryError&) {
      return false;
    }
    ctl.reprice(flows, fabric, cpu, nullptr, 1.0,
                [&](fabric::CoflowId id) -> const fabric::Coflow& {
                  return coflows.at(id);
                });
    for (const fabric::Coflow& c : coflows)
      ctl.admit(c, flows, fabric, cpu, nullptr, 0.5);
    for (const fabric::Coflow& c : coflows) ctl.release(c.id);
    return true;
  };

  {
    core::AdmissionController back(cfg, fabric);
    recovery::StateReader r(valid);
    back.restore_state(r, coflows.size(), flows.size());
    EXPECT_TRUE(r.at_end());
    recovery::StateWriter again;
    back.save_state(again, coflows.size(), flows.size());
    EXPECT_TRUE(std::ranges::equal(again.buffer(), valid)) << "round trip";
  }
  for (std::size_t len = 0; len < valid.size(); ++len)
    EXPECT_FALSE(restore_and_use(std::span(valid).first(len)))
        << "truncated to " << len;
  std::size_t restored = 0;
  for (std::size_t off = 0; off < valid.size(); ++off)
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> flipped = valid;
      flipped[off] ^= std::uint8_t(1u << bit);
      restored += restore_and_use(flipped);
    }
  // Flips in deadlines and low id bits restore; flips in counts and high
  // id bits do not.
  EXPECT_GT(restored, 0u);
  EXPECT_LT(restored, valid.size() * 8);
}

TEST(RecoveryFuzz, StateReaderRejectsImplausibleCounts) {
  recovery::StateWriter w;
  w.u64(~std::uint64_t{0});  // count far beyond the remaining bytes
  recovery::StateReader r(w.buffer());
  try {
    (void)r.count("fuzz");
    FAIL() << "implausible count accepted";
  } catch (const recovery::RecoveryError& e) {
    EXPECT_NE(e.offset(), recovery::RecoveryError::npos);
  }
}

TEST(RecoveryGuard, SchedulerMismatchIsATypedError) {
  const workload::Trace trace = make_trace(89, 10, 6);
  const fabric::Fabric fabric(trace.num_ports, common::mbps(150));
  const cpu::ConstantCpu cpu(0.85);
  sim::SimConfig config;
  config.codec = &codec::default_codec_model();
  TempDir dir;
  config.recovery.dir = dir.str();
  config.recovery.checkpoint_every = 2;
  recovery::CrashPlan plan;
  plan.kill_at_event = count_events(trace, fabric, cpu, "FVDF", config) - 1;
  config.recovery.crash = &plan;
  EXPECT_FALSE(try_run(trace, fabric, cpu, "FVDF", config).has_value());
  // Restoring under a different scheduler: the fingerprint rejects every
  // snapshot (cold start), and the journal cross-check catches the first
  // divergent regenerated event instead of silently producing a different
  // schedule.
  config.recovery.crash = nullptr;
  config.recovery.restore = true;
  EXPECT_THROW(run_once(trace, fabric, cpu, "FIFO", config),
               recovery::RecoveryError);
}

}  // namespace
