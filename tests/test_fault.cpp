// Fault-injection and recovery tests: deterministic injector behavior,
// corruption reaching the frame checksums, bounded backoff, retention and
// retransmit, PortGate holder eviction, graceful degradation, worker kill,
// and the full fault matrix (every fault class x smart_compress on/off)
// asserting jobs either complete verified or fail with a typed
// ShuffleError — never hang, never silently corrupt.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <span>
#include <thread>
#include <vector>

#include "codec/checksum.hpp"
#include "codec/chunk.hpp"
#include "codec/null_codec.hpp"
#include "recovery/state_io.hpp"
#include "runtime/context.hpp"
#include "runtime/fault.hpp"
#include "runtime/shuffle.hpp"

namespace swallow::runtime {
namespace {

/// Master::key_of of a coflow no applied result has named.
constexpr double kUnscheduled = std::numeric_limits<double>::infinity();

ClusterConfig fault_config(bool compress = true) {
  ClusterConfig config;
  config.num_workers = 4;
  config.nic_rate = 512.0 * 1024 * 1024;
  config.smart_compress = compress;
  config.codec_model = codec::CodecModel{"test", 4e9, 8e9, 0.5};
  // Short per-attempt waits keep fault tests brisk; the retry budget still
  // bounds every path.
  config.retry.pull_timeout = 0.15;
  config.retry.base_backoff = 0.002;
  config.retry.max_backoff = 0.02;
  config.retry.gate_holder_timeout = 0.25;
  return config;
}

ShuffleJobConfig small_job(std::uint64_t seed = 1) {
  ShuffleJobConfig job;
  job.app = codec::app_by_name("Sort");
  job.mappers = 3;
  job.reducers = 2;
  job.bytes_per_partition = 16 * 1024;
  job.seed = seed;
  return job;
}

TEST(FaultInjector, DisabledNeverFires) {
  FaultConfig config;  // enabled = false
  config.set_uniform_rate(1.0);
  FaultInjector injector(config, nullptr, nullptr);
  EXPECT_FALSE(injector.enabled());
  for (int b = 1; b < 50; ++b)
    EXPECT_FALSE(injector.fires(FaultKind::kDrop, b, 0));
}

TEST(FaultInjector, DecisionsAreDeterministicInSeed) {
  FaultConfig config;
  config.enabled = true;
  config.seed = 42;
  config.set_uniform_rate(0.3);
  FaultInjector a(config, nullptr, nullptr);
  FaultInjector b(config, nullptr, nullptr);
  config.seed = 43;
  FaultInjector c(config, nullptr, nullptr);

  bool any_fired = false;
  bool seed_changed_pattern = false;
  for (BlockId block = 1; block <= 200; ++block) {
    for (int attempt = 0; attempt < 3; ++attempt) {
      const bool fa = a.fires(FaultKind::kCorrupt, block, attempt);
      EXPECT_EQ(fa, b.fires(FaultKind::kCorrupt, block, attempt));
      any_fired = any_fired || fa;
      if (fa != c.fires(FaultKind::kCorrupt, block, attempt))
        seed_changed_pattern = true;
    }
  }
  EXPECT_TRUE(any_fired);
  EXPECT_TRUE(seed_changed_pattern);
}

TEST(FaultInjector, CorruptionIsCaughtByFrameChecksums) {
  common::Rng rng(7);
  const codec::Buffer payload = codec::text_bytes(8 * 1024, rng);
  const codec::NullCodec null;
  codec::Buffer wire = codec::chunk_compress(null, payload);
  const codec::Buffer magic(wire.begin(), wire.begin() + 4);

  FaultConfig config;
  config.enabled = true;
  config.corrupt_rate = 1.0;
  FaultInjector injector(config, nullptr, nullptr);
  injector.corrupt(wire, /*block=*/9, /*attempt=*/0);

  // The magic survives so the corruption reaches the checksum machinery.
  EXPECT_EQ(codec::Buffer(wire.begin(), wire.begin() + 4), magic);
  EXPECT_THROW(codec::chunk_decompress(wire), codec::CodecError);
}

TEST(Backoff, GrowsExponentiallyAndStaysBounded) {
  RetryPolicy retry;
  retry.base_backoff = 0.01;
  retry.backoff_multiplier = 2.0;
  retry.max_backoff = 0.05;
  retry.jitter = 0.0;  // deterministic for exact bounds
  common::Rng rng(1);
  EXPECT_DOUBLE_EQ(backoff_delay(retry, 1, rng), 0.01);
  EXPECT_DOUBLE_EQ(backoff_delay(retry, 2, rng), 0.02);
  EXPECT_DOUBLE_EQ(backoff_delay(retry, 3, rng), 0.04);
  EXPECT_DOUBLE_EQ(backoff_delay(retry, 4, rng), 0.05);   // clamped
  EXPECT_DOUBLE_EQ(backoff_delay(retry, 20, rng), 0.05);  // stays clamped

  retry.jitter = 0.5;
  for (int i = 0; i < 50; ++i) {
    const common::Seconds d = backoff_delay(retry, 2, rng);
    EXPECT_GE(d, 0.01);  // (1 - jitter) * 0.02
    EXPECT_LE(d, 0.02);
  }
}

TEST(RetentionStore, RetainLookupDrop) {
  RetentionStore store;
  const codec::Buffer raw{1, 2, 3, 4};
  store.retain(BlockKey{7, 11}, /*src=*/0, /*dst=*/2, raw);
  EXPECT_EQ(store.block_count(), 1u);
  EXPECT_EQ(store.resident_bytes(), 4u);

  const auto hit = store.lookup(BlockKey{7, 11});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->raw, raw);
  EXPECT_EQ(hit->src, 0u);
  EXPECT_EQ(hit->dst, 2u);
  EXPECT_FALSE(store.lookup(BlockKey{7, 12}).has_value());

  EXPECT_EQ(store.drop_coflow(7), 4u);
  EXPECT_EQ(store.block_count(), 0u);
}

TEST(PortGate, EvictsDeadHolderAfterTimeout) {
  PortGate gate;
  gate.set_holder_timeout(0.05);
  const PortGate::Ticket dead = gate.acquire({0, 0});  // "crashes" holding it

  const auto t0 = std::chrono::steady_clock::now();
  const PortGate::Ticket next = gate.acquire({1, 0});  // must not hang
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GE(waited, 0.03);
  EXPECT_LT(waited, 2.0);
  EXPECT_EQ(gate.evictions(), 1u);

  // The evicted holder's late release must not free the port under the
  // new holder.
  gate.release(dead);
  std::atomic<bool> acquired{false};
  std::jthread waiter([&] {
    gate.acquire({2, 0});
    acquired = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(acquired.load());  // still held by `next`
  gate.release(next);
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

TEST(Master, DegradationLadderFlipsFlowToUncompressed) {
  ClusterConfig config = fault_config();
  config.retry.degrade_after = 2;
  Cluster cluster(config);
  Master& master = cluster.master();
  CoflowInfo info;
  info.flows = {{1, 0, 1, 1000, true}};
  const CoflowRef ref = master.add(std::move(info));
  master.alloc(master.scheduling({ref}));
  EXPECT_TRUE(master.decision_of(1).compress);
  EXPECT_FALSE(master.decision_of(1).degraded);

  EXPECT_EQ(master.record_flow_failure(1), 1);
  EXPECT_TRUE(master.decision_of(1).compress);  // below threshold
  EXPECT_EQ(master.record_flow_failure(1), 2);
  EXPECT_FALSE(master.decision_of(1).compress);
  EXPECT_TRUE(master.decision_of(1).degraded);
  EXPECT_EQ(master.degraded_flows(), 1u);

  // Degradation is sticky across re-scheduling and re-allocation.
  master.alloc(master.scheduling({ref}));
  EXPECT_FALSE(master.decision_of(1).compress);
  EXPECT_TRUE(master.decision_of(1).degraded);
  EXPECT_EQ(master.degraded_flows(), 1u);  // counted once
}

TEST(Fault, PersistentCodecFailureDegradesButJobCompletes) {
  ClusterConfig config = fault_config();
  config.fault.enabled = true;
  config.fault.codec_fail_rate = 1.0;  // every compress attempt fails
  config.retry.degrade_after = 2;
  Cluster cluster(config);
  const ShuffleReport report = run_shuffle_job(cluster, small_job());
  EXPECT_TRUE(report.verified);
  // Every flow hit the ladder and fell back to the uncompressed path.
  EXPECT_GT(report.degraded_flows, 0u);
  EXPECT_GT(report.retries, 0u);
  EXPECT_LT(report.traffic_reduction(), 0.01);  // nothing compressed
}

TEST(Fault, TotalDropExhaustsRetriesWithTypedError) {
  ClusterConfig config = fault_config();
  config.fault.enabled = true;
  config.fault.drop_rate = 1.0;  // every attempt (and retransmit) vanishes
  config.retry.max_attempts = 2;
  config.retry.pull_timeout = 0.05;
  Cluster cluster(config);
  try {
    run_shuffle_job(cluster, small_job());
    FAIL() << "expected ShuffleError";
  } catch (const ShuffleError& e) {
    EXPECT_EQ(e.kind(), ShuffleFailure::kPullTimeout);
    EXPECT_NE(e.block(), 0u);
    EXPECT_NE(std::string(e.what()).find("pull_timeout"), std::string::npos);
  }
  // The failed job still cleaned up after itself (its one coflow is ref 1).
  EXPECT_FALSE(cluster.master().has_coflow(1));
  EXPECT_EQ(cluster.retention().block_count(), 0u);
  EXPECT_GT(cluster.fault_stats().pull_timeouts, 0u);
}

TEST(Fault, WorkerKillRecoversViaRetention) {
  ClusterConfig config = fault_config();
  config.fault.enabled = true;
  config.fault.kill_enabled = true;
  config.fault.kill_worker = 1;
  config.fault.kill_after_deliveries = 2;
  Cluster cluster(config);
  const ShuffleReport report = run_shuffle_job(cluster, small_job());
  EXPECT_TRUE(report.verified);
  EXPECT_TRUE(cluster.worker(1).dead());
  EXPECT_EQ(cluster.fault_stats().worker_kills, 1u);
  EXPECT_EQ(cluster.effective_worker(1), 2u);
}

TEST(Fault, KillHoldingGateIsEvictedNotDeadlocked) {
  ClusterConfig config = fault_config();
  config.fault.enabled = true;
  config.fault.kill_enabled = true;
  config.fault.kill_worker = 0;
  config.fault.kill_after_deliveries = 1;
  config.fault.kill_holding_gate = true;
  config.retry.gate_holder_timeout = 0.05;
  Cluster cluster(config);
  const ShuffleReport report = run_shuffle_job(cluster, small_job());
  EXPECT_TRUE(report.verified);
  EXPECT_TRUE(cluster.worker(0).dead());
}

TEST(Fault, MatrixEveryKindEitherCompletesVerifiedOrThrowsTyped) {
  struct Case {
    const char* name;
    void (*apply)(FaultConfig&);
  };
  const Case cases[] = {
      {"drop", [](FaultConfig& f) { f.drop_rate = 0.3; }},
      {"corrupt", [](FaultConfig& f) { f.corrupt_rate = 0.3; }},
      {"stall",
       [](FaultConfig& f) {
         f.stall_rate = 0.5;
         f.stall_duration = 0.01;
       }},
      {"codec_fail", [](FaultConfig& f) { f.codec_fail_rate = 0.3; }},
      {"worker_kill",
       [](FaultConfig& f) {
         f.kill_enabled = true;
         f.kill_worker = 2;
         f.kill_after_deliveries = 3;
       }},
      {"everything",
       [](FaultConfig& f) {
         f.set_uniform_rate(0.15);
         f.kill_enabled = true;
         f.kill_worker = 3;
         f.kill_after_deliveries = 4;
       }},
  };

  for (const bool compress : {true, false}) {
    for (const Case& c : cases) {
      ClusterConfig config = fault_config(compress);
      config.fault.enabled = true;
      config.fault.seed = 99;
      c.apply(config.fault);
      Cluster cluster(config);
      try {
        const ShuffleReport report =
            run_shuffle_job(cluster, small_job(/*seed=*/3));
        // Completion implies full payload verification: recovery never
        // hands corrupted bytes to the reducers.
        EXPECT_TRUE(report.verified)
            << c.name << " compress=" << compress;
      } catch (const ShuffleError& e) {
        // Bounded, typed failure is acceptable; silent corruption or a
        // hang (caught by the ctest TIMEOUT) is not.
        EXPECT_NE(e.block(), 0u) << c.name << " compress=" << compress;
      }
      // Either way the job released its bookkeeping (its one coflow is
      // ref 1).
      EXPECT_FALSE(cluster.master().has_coflow(1)) << c.name;
      EXPECT_EQ(cluster.retention().block_count(), 0u) << c.name;
    }
  }
}

// One payload pushed to two targets under every fault kind at once. Each
// target keeps its own retention, injections, retries and delivery, so
// both blocks pull back byte-exact, whether a target sent the frame
// encoded for the one before it or encoded its own (a retransmit, or a
// flow the master degraded to uncompressed).
TEST(Fault, MultiTargetPushRecoversEveryTarget) {
  ClusterConfig config = fault_config();
  config.fault.enabled = true;
  config.fault.seed = 5;
  config.fault.set_uniform_rate(0.25);
  config.fault.stall_duration = 0.005;
  config.retry.max_attempts = 8;
  Cluster cluster(config);
  SwallowContext ctx(cluster);

  constexpr BlockId kPushes = 8;
  std::vector<codec::Buffer> payloads;
  for (BlockId i = 0; i < kPushes; ++i) {
    common::Rng rng(100 + i);
    payloads.push_back(codec::text_bytes(40 * 1024, rng));
    for (const WorkerId dst : {1u, 2u})
      ctx.register_flow(
          FlowInfo{2 * i + dst, 0, dst, payloads.back().size(), true});
  }
  const CoflowRef ref = ctx.add(ctx.aggregate(ctx.hook(0)));
  ctx.alloc(ctx.scheduling({ref}));
  for (BlockId i = 0; i < kPushes; ++i)
    ctx.push(ref, {{2 * i + 1, 1}, {2 * i + 2, 2}}, payloads[i], 0);
  for (BlockId i = 0; i < kPushes; ++i)
    for (const WorkerId dst : {1u, 2u})
      EXPECT_EQ(ctx.pull(ref, 2 * i + dst, dst), payloads[i])
          << "push " << i << ", target " << dst;

  const FaultStats stats = cluster.fault_stats();
  EXPECT_GT(stats.injected_codec_failures, 0u);
  EXPECT_GT(stats.injected_corruptions, 0u);
  EXPECT_GT(stats.injected_drops, 0u);
  EXPECT_GT(stats.injected_stalls, 0u);
  EXPECT_GT(stats.retransmits, 0u);
  EXPECT_GT(stats.degraded_flows, 0u);
  ctx.remove(ref);
  EXPECT_EQ(cluster.retention().block_count(), 0u);
}

TEST(Fault, DisabledInjectorIsByteIdenticalToBaseline) {
  // Baseline: a config that never mentions the fault machinery.
  ClusterConfig baseline = fault_config();
  // Variant: fault knobs present (rates set, seed set) but enabled=false.
  ClusterConfig disabled = fault_config();
  disabled.fault.seed = 1234;
  disabled.fault.set_uniform_rate(1.0);  // must be ignored while disabled

  Cluster a(baseline), b(disabled);
  const ShuffleReport ra = run_shuffle_job(a, small_job(/*seed=*/5));
  const ShuffleReport rb = run_shuffle_job(b, small_job(/*seed=*/5));

  EXPECT_TRUE(ra.verified);
  EXPECT_TRUE(rb.verified);
  // Byte-for-byte identical traffic and zero fault-path activity.
  EXPECT_EQ(ra.raw_bytes, rb.raw_bytes);
  EXPECT_EQ(ra.wire_bytes, rb.wire_bytes);
  EXPECT_EQ(a.total_wire_bytes(), b.total_wire_bytes());
  EXPECT_EQ(a.total_raw_bytes(), b.total_raw_bytes());
  for (const ShuffleReport* r : {&ra, &rb}) {
    EXPECT_EQ(r->faults_injected, 0u);
    EXPECT_EQ(r->retries, 0u);
    EXPECT_EQ(r->retransmits, 0u);
    EXPECT_EQ(r->corrupt_frames, 0u);
    EXPECT_EQ(r->pull_timeouts, 0u);
    EXPECT_EQ(r->gate_evictions, 0u);
    EXPECT_EQ(r->degraded_flows, 0u);
  }
  // Retention never populated on the disabled path.
  EXPECT_EQ(a.retention().block_count(), 0u);
  EXPECT_EQ(b.retention().block_count(), 0u);
  EXPECT_EQ(b.fault_stats().total_injected(), 0u);
}

TEST(Fault, StatsAccumulateAcrossInjections) {
  ClusterConfig config = fault_config();
  config.fault.enabled = true;
  config.fault.drop_rate = 0.4;
  config.fault.seed = 7;
  Cluster cluster(config);
  const ShuffleReport report = run_shuffle_job(cluster, small_job());
  EXPECT_TRUE(report.verified);
  const FaultStats stats = cluster.fault_stats();
  EXPECT_GT(stats.injected_drops, 0u);
  EXPECT_GT(stats.pull_timeouts, 0u);
  EXPECT_GT(stats.retransmits, 0u);
  EXPECT_EQ(stats.total_injected(), stats.injected_drops);
  // Report deltas match the cluster-wide counters for a single job.
  EXPECT_EQ(report.retransmits, stats.retransmits);
  EXPECT_EQ(report.pull_timeouts, stats.pull_timeouts);
}

TEST(ShuffleError, CarriesCoordinatesAndKind) {
  const ShuffleError e(ShuffleFailure::kCorruption, 3, 14, 14);
  EXPECT_EQ(e.kind(), ShuffleFailure::kCorruption);
  EXPECT_EQ(e.coflow(), 3u);
  EXPECT_EQ(e.flow(), 14u);
  EXPECT_EQ(e.block(), 14u);
  const std::string what = e.what();
  EXPECT_NE(what.find("corruption"), std::string::npos);
  EXPECT_NE(what.find("14"), std::string::npos);
}

TEST(Cluster, KillWorkerNeverKillsLastSurvivor) {
  ClusterConfig config = fault_config();
  config.num_workers = 2;
  Cluster cluster(config);
  cluster.kill_worker(0);
  EXPECT_TRUE(cluster.worker(0).dead());
  cluster.kill_worker(1);  // refused: last one standing
  EXPECT_FALSE(cluster.worker(1).dead());
  EXPECT_EQ(cluster.effective_worker(0), 1u);
  EXPECT_EQ(cluster.effective_worker(1), 1u);
}

// ---------------------------------------------------------------------------
// Master checkpoint/restore and fail-over (DESIGN.md section 13)
// ---------------------------------------------------------------------------

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    std::string tmpl =
        (std::filesystem::temp_directory_path() / "swallow-master-XXXXXX")
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
};

Master make_master(const ClusterConfig& config) {
  return Master(config.num_workers, config.nic_rate, config.codec_model,
                kCpuHeadroom, config.smart_compress, config.sink,
                config.retry.degrade_after);
}

CoflowInfo two_flow_coflow(RtFlowId first_flow) {
  CoflowInfo info;
  info.flows.push_back(FlowInfo{first_flow, 0, 1, 64 * 1024, true});
  info.flows.push_back(FlowInfo{first_flow + 1, 1, 2, 32 * 1024, true});
  return info;
}

TEST(MasterRecovery, StateRoundTripIsExact) {
  const ClusterConfig config = fault_config();
  Master original = make_master(config);
  const CoflowRef ref = original.add(two_flow_coflow(100));
  original.alloc(original.scheduling({ref}));
  // Degrade flow 101 so the restored master must remember the ladder.
  original.record_flow_failure(101);
  original.record_flow_failure(101);
  ASSERT_TRUE(original.decision_of(101).degraded);

  recovery::StateWriter w;
  original.save_state(w);
  Master restored = make_master(config);
  recovery::StateReader r(w.buffer());
  restored.restore_state(r);
  EXPECT_TRUE(r.at_end());

  recovery::StateWriter again;
  restored.save_state(again);
  EXPECT_TRUE(std::ranges::equal(again.buffer(), w.buffer()));
  EXPECT_TRUE(restored.has_coflow(ref));
  EXPECT_EQ(restored.degraded_flows(), original.degraded_flows());
  EXPECT_EQ(restored.key_of(ref), original.key_of(ref));
  for (const RtFlowId flow : {RtFlowId{100}, RtFlowId{101}}) {
    const FlowDecision a = original.decision_of(flow);
    const FlowDecision b = restored.decision_of(flow);
    EXPECT_EQ(a.compress, b.compress) << flow;
    EXPECT_EQ(a.degraded, b.degraded) << flow;
  }
  // The ref counter survived: both masters hand out the same next ref.
  EXPECT_EQ(restored.add(two_flow_coflow(200)),
            original.add(two_flow_coflow(200)));
  // The flow index was rebuilt: remove() leaves no key or decision.
  restored.remove(ref);
  EXPECT_FALSE(restored.has_coflow(ref));
  EXPECT_EQ(restored.key_of(ref), kUnscheduled);
  for (const RtFlowId flow : {RtFlowId{100}, RtFlowId{101}}) {
    EXPECT_FALSE(restored.decision_of(flow).compress) << flow;
    EXPECT_FALSE(restored.decision_of(flow).degraded) << flow;
  }
}

TEST(MasterRecovery, RestoreRefusesAFlowListedUnderTwoCoflows) {
  const ClusterConfig config = fault_config();
  Master original = make_master(config);
  original.add(two_flow_coflow(0x5a5a0100));
  original.add(two_flow_coflow(0x5a5a0200));
  recovery::StateWriter w;
  original.save_state(w);
  // Relabel the second coflow's first flow as the first coflow's: the
  // bytes stay well formed, but name one flow under two coflows.
  std::vector<std::uint8_t> bytes(w.buffer().begin(), w.buffer().end());
  const auto le = [](std::uint64_t v) {
    std::array<std::uint8_t, 8> b{};
    for (std::size_t i = 0; i < b.size(); ++i)
      b[i] = static_cast<std::uint8_t>(v >> (8 * i));
    return b;
  };
  const auto from = le(0x5a5a0200);
  const auto to = le(0x5a5a0100);
  const auto at = std::search(bytes.begin(), bytes.end(), from.begin(),
                              from.end());
  ASSERT_NE(at, bytes.end());
  ASSERT_EQ(std::search(at + 1, bytes.end(), from.begin(), from.end()),
            bytes.end());
  std::copy(to.begin(), to.end(), at);
  Master victim = make_master(config);
  recovery::StateReader r(bytes);
  EXPECT_THROW(victim.restore_state(r), recovery::RecoveryError);
}

TEST(MasterRecovery, RestoreRefusesANaNKey) {
  // Well-formed bytes whose first coflow's gate key is NaN, which would
  // break the port gates' (key, ref) order. The key follows next_ref,
  // the degraded count, the coflow count, the ref and the priority.
  const ClusterConfig config = fault_config();
  Master original = make_master(config);
  const CoflowRef ref = original.add(two_flow_coflow(100));
  original.alloc(original.scheduling({ref}));
  recovery::StateWriter w;
  original.save_state(w);
  std::vector<std::uint8_t> bytes(w.buffer().begin(), w.buffer().end());
  const auto key_bits = std::bit_cast<std::uint64_t>(original.key_of(ref));
  constexpr std::size_t kKeyAt = 5 * 8;
  for (std::size_t i = 0; i < 8; ++i)
    ASSERT_EQ(bytes[kKeyAt + i], static_cast<std::uint8_t>(key_bits >> 8 * i));
  const auto nan_bits =
      std::bit_cast<std::uint64_t>(std::numeric_limits<double>::quiet_NaN());
  for (std::size_t i = 0; i < 8; ++i)
    bytes[kKeyAt + i] = static_cast<std::uint8_t>(nan_bits >> 8 * i);
  Master victim = make_master(config);
  recovery::StateReader r(bytes);
  EXPECT_THROW(victim.restore_state(r), recovery::RecoveryError);
}

TEST(MasterRecovery, RestoreStateRejectsMalformedBytes) {
  const ClusterConfig config = fault_config();
  Master original = make_master(config);
  const CoflowRef ref = original.add(two_flow_coflow(100));
  original.alloc(original.scheduling({ref}));
  recovery::StateWriter w;
  original.save_state(w);
  const std::span<const std::uint8_t> bytes = w.buffer();
  for (std::size_t len = 0; len < bytes.size(); len += 5) {
    const std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + len);
    Master victim = make_master(config);
    recovery::StateReader r(cut);
    EXPECT_THROW(victim.restore_state(r), recovery::RecoveryError)
        << "truncated to " << len;
  }
}

TEST(MasterRecovery, StateBytesArePinned) {
  // The master's state layout, pinned by digest: three coflows, one
  // removed after its decisions were applied; the two left carry priority
  // classes and keys from two calls, one flow degraded and one a failure
  // short of it, so every field the table carries is set.
  const ClusterConfig config = fault_config();
  Master master = make_master(config);
  const CoflowRef a = master.add(two_flow_coflow(100));
  const CoflowRef b = master.add(two_flow_coflow(200));
  const CoflowRef c = master.add(two_flow_coflow(300));
  master.alloc(master.scheduling({a, b, c}));
  master.record_flow_failure(101);
  master.record_flow_failure(101);
  master.record_flow_failure(200);
  master.remove(c);
  master.alloc(master.scheduling({b, a}));
  ASSERT_EQ(master.degraded_flows(), 1u);

  recovery::StateWriter w;
  master.save_state(w);
  EXPECT_EQ(w.size(), 224u);
  EXPECT_EQ(codec::checksum64(w.buffer()), 0xc9e75affc052751cull);
}

TEST(MasterRecovery, CheckpointIsFingerprintGuarded) {
  const ClusterConfig config = fault_config();
  TempDir dir;
  Master original = make_master(config);
  const CoflowRef ref = original.add(two_flow_coflow(100));
  original.alloc(original.scheduling({ref}));
  original.checkpoint(dir.str(), 1);

  Master same = make_master(config);
  EXPECT_TRUE(same.restore_from(dir.str()));
  EXPECT_EQ(same.key_of(ref), original.key_of(ref));

  // A master configured differently must not accept the snapshot.
  ClusterConfig other = fault_config();
  other.nic_rate = config.nic_rate * 2;
  Master mismatched = make_master(other);
  EXPECT_FALSE(mismatched.restore_from(dir.str()));
  EXPECT_FALSE(mismatched.has_coflow(ref));
  EXPECT_EQ(mismatched.key_of(ref), kUnscheduled);
  EXPECT_FALSE(mismatched.decision_of(100).compress);

  TempDir empty;
  Master cold = make_master(config);
  EXPECT_FALSE(cold.restore_from(empty.str()));
}

/// Crashes the cluster's master: its replacement knows nothing.
void crash_master(Cluster& cluster) {
  Master blank = make_master(cluster.config());
  recovery::StateWriter w;
  blank.save_state(w);
  recovery::StateReader r(w.buffer());
  cluster.master().restore_state(r);
}

/// Drives a manual push cycle, crashes the master (blank replacement),
/// wipes every worker store (the crash takes receiver memory with it),
/// fails over, and checks the retained in-flight blocks replay so pulls
/// complete with the original payloads.
void failover_round(bool with_snapshot) {
  SCOPED_TRACE(with_snapshot ? "snapshot failover" : "cold failover");
  ClusterConfig config = fault_config();
  config.fault.enabled = true;  // rates stay 0: retention on, no faults
  Cluster cluster(config);
  SwallowContext ctx(cluster);

  const std::vector<RtFlowId> blocks = {501, 502, 503, 504};
  std::map<RtFlowId, codec::Buffer> payloads;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    codec::Buffer data(8 * 1024);
    for (std::size_t k = 0; k < data.size(); ++k)
      data[k] = static_cast<std::uint8_t>((k * (i + 3)) & 0xff);
    payloads[blocks[i]] = std::move(data);
    const auto src = static_cast<WorkerId>(i % cluster.size());
    const auto dst = static_cast<WorkerId>((i + 1) % cluster.size());
    ctx.register_flow(
        FlowInfo{blocks[i], src, dst, payloads[blocks[i]].size(), true});
  }
  std::vector<FlowInfo> all_flows;
  for (WorkerId w = 0; w < cluster.size(); ++w) {
    auto flows = ctx.hook(w);
    all_flows.insert(all_flows.end(), flows.begin(), flows.end());
  }
  const CoflowRef ref = ctx.add(ctx.aggregate(std::move(all_flows)));
  ctx.alloc(ctx.scheduling({ref}));
  for (std::size_t i = 0; i < blocks.size(); ++i)
    ctx.push(ref,
             {{blocks[i], static_cast<WorkerId>((i + 1) % cluster.size())}},
             payloads[blocks[i]], static_cast<WorkerId>(i % cluster.size()));

  TempDir dir;
  if (with_snapshot) cluster.master().checkpoint(dir.str(), 1);

  // Crash: the replacement master knows nothing, and the receivers' block
  // stores died with the process.
  crash_master(cluster);
  for (WorkerId w = 0; w < cluster.size(); ++w)
    cluster.worker(w).store().clear();
  ASSERT_FALSE(cluster.master().has_coflow(ref));

  EXPECT_EQ(cluster.restore_master(dir.str()), with_snapshot);
  ASSERT_TRUE(cluster.master().has_coflow(ref));
  if (!with_snapshot) {
    // Cold fail-over recovers registrations but not decisions; the driver
    // re-runs the scheduling round exactly as after any arrival.
    ctx.alloc(ctx.scheduling({ref}));
  }
  EXPECT_EQ(ctx.replay_in_flight(), blocks.size());
  // Nothing missing: a second replay is a no-op.
  EXPECT_EQ(ctx.replay_in_flight(), 0u);

  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const codec::Buffer got = ctx.pull(
        ref, blocks[i], static_cast<WorkerId>((i + 1) % cluster.size()));
    EXPECT_EQ(got, payloads[blocks[i]]) << "block " << blocks[i];
  }

  // remove() prunes the logs: a later fail-over cannot resurrect the job.
  ctx.remove(ref);
  for (WorkerId w = 0; w < cluster.size(); ++w)
    EXPECT_TRUE(cluster.worker(w).registration_log().empty()) << w;
  EXPECT_EQ(cluster.retention().block_count(), 0u);
}

TEST(MasterRecovery, FailoverFromSnapshotReplaysInFlightBlocks) {
  failover_round(/*with_snapshot=*/true);
}

TEST(MasterRecovery, ColdFailoverReregistersFromWorkerLogs) {
  failover_round(/*with_snapshot=*/false);
}

// The workers' logs hold every coflow, retained or not: with injection off
// (nothing retained), a master that lost its state and finds no snapshot
// gets the coflow back under its ref, and re-scheduling restores its β.
TEST(MasterRecovery, ColdFailoverWithoutInjectionReregistersTheCoflow) {
  const ClusterConfig config = fault_config();
  ASSERT_FALSE(config.fault.enabled);
  Cluster cluster(config);
  SwallowContext ctx(cluster);
  ctx.register_flow(FlowInfo{1, 0, 1, 64 * 1024, true});
  ctx.register_flow(FlowInfo{2, 1, 2, 32 * 1024, true});
  std::vector<FlowInfo> flows = ctx.hook(0);
  for (const FlowInfo& f : ctx.hook(1)) flows.push_back(f);
  const CoflowRef ref = ctx.add(ctx.aggregate(std::move(flows)));
  ctx.alloc(ctx.scheduling({ref}));
  ASSERT_TRUE(cluster.master().decision_of(1).compress);

  crash_master(cluster);
  ASSERT_FALSE(cluster.master().has_coflow(ref));
  TempDir empty;
  EXPECT_FALSE(cluster.restore_master(empty.str()));
  ASSERT_TRUE(cluster.master().has_coflow(ref));
  EXPECT_FALSE(cluster.master().decision_of(1).compress);  // not logged
  ctx.alloc(ctx.scheduling({ref}));
  EXPECT_TRUE(cluster.master().decision_of(1).compress);
  EXPECT_TRUE(cluster.master().decision_of(2).compress);

  ctx.remove(ref);
  for (WorkerId w = 0; w < cluster.size(); ++w)
    EXPECT_TRUE(cluster.worker(w).registration_log().empty()) << w;
}

// A coflow removed after the last snapshot stays removed across a fail-over
// from that snapshot: no worker logs its ref any more, so the replacement
// master drops it, and its flow ids are free for a later coflow.
TEST(MasterRecovery, SnapshotFailoverDropsACoflowRemovedSinceTheSnapshot) {
  Cluster cluster(fault_config());
  SwallowContext ctx(cluster);
  ctx.register_flow(FlowInfo{1, 0, 1, 64 * 1024, true});
  const CoflowRef ref = ctx.add(ctx.aggregate(ctx.hook(0)));
  TempDir dir;
  cluster.master().checkpoint(dir.str(), 1);
  ctx.remove(ref);

  crash_master(cluster);
  EXPECT_TRUE(cluster.restore_master(dir.str()));
  EXPECT_FALSE(cluster.master().has_coflow(ref));
  ctx.register_flow(FlowInfo{1, 0, 1, 64 * 1024, true});
  CoflowRef again = 0;
  ASSERT_NO_THROW(again = ctx.add(ctx.aggregate(ctx.hook(0))));
  EXPECT_GT(again, ref);  // the snapshot's next ref: refs are never reused
  EXPECT_TRUE(cluster.master().has_coflow(again));
}

// ---------------------------------------------------------------------------
// Timed-wait hygiene: absolute deadlines, no drift, no early timeout
// ---------------------------------------------------------------------------

TEST(TimedWaits, TakeForDeadlineDoesNotDriftUnderWakeups) {
  BlockStore store;
  const BlockKey wanted{1, 1};
  const BlockKey noise{2, 2};
  // A nuisance thread pounds the store's condvar with unrelated puts: each
  // wakeup must consume the remaining budget, not restart it. A drifting
  // wait would stretch far past the 150 ms deadline.
  std::atomic<bool> stop{false};
  std::thread nuisance([&] {
    while (!stop.load()) {
      store.put(noise, codec::Buffer(16));
      (void)store.take_for(noise, 0.001);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = store.take_for(wanted, 0.15);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  stop.store(true);
  nuisance.join();
  EXPECT_FALSE(result.has_value());
  EXPECT_GE(elapsed, 0.15);
  EXPECT_LT(elapsed, 1.0);  // drift bound, generous for loaded CI machines
}

TEST(TimedWaits, TakeForStillDeliversLateArrivals) {
  BlockStore store;
  const BlockKey key{3, 3};
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    store.put(key, codec::Buffer(32, std::uint8_t{7}));
  });
  const auto result = store.take_for(key, 5.0);
  producer.join();
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->size(), 32u);
}

}  // namespace
}  // namespace swallow::runtime
