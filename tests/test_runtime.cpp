// Runtime tests: rate limiter, block store, buffer pool, port gate
// ordering, master scheduling, the Table IV SwallowContext API, and
// end-to-end shuffle jobs with payload verification.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <mutex>
#include <string_view>
#include <thread>
#include <utility>
#include <variant>

#include "codec/null_codec.hpp"
#include "core/online.hpp"
#include "obs/trace.hpp"
#include "runtime/context.hpp"
#include "runtime/shuffle.hpp"

namespace swallow::runtime {
namespace {

/// Master::key_of of a coflow no applied result has named.
constexpr double kUnscheduled = std::numeric_limits<double>::infinity();

using Clock = std::chrono::steady_clock;

double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

TEST(RateLimiter, EnforcesConfiguredRate) {
  RateLimiter limiter(1024 * 1024, 16 * 1024);  // 1 MiB/s, small burst
  limiter.acquire(16 * 1024);                   // drain the initial burst
  const auto t0 = Clock::now();
  limiter.acquire(256 * 1024);  // should take ~0.25 s
  const double elapsed = seconds(t0, Clock::now());
  EXPECT_GT(elapsed, 0.15);
  EXPECT_LT(elapsed, 0.6);
}

TEST(RateLimiter, BurstPassesImmediately) {
  RateLimiter limiter(1024, 64 * 1024);
  const auto t0 = Clock::now();
  limiter.acquire(32 * 1024);  // within the initial bucket
  EXPECT_LT(seconds(t0, Clock::now()), 0.05);
}

TEST(RateLimiter, RejectsNonPositiveRate) {
  EXPECT_DOUBLE_EQ(RateLimiter(1024).rate(), 1024.0);
  EXPECT_THROW(RateLimiter(0), std::invalid_argument);
  EXPECT_THROW(RateLimiter(-1), std::invalid_argument);
}

TEST(BlockStore, PutTakeRoundtrip) {
  BlockStore store;
  store.put({1, 2}, {10, 20, 30});
  EXPECT_EQ(store.block_count(), 1u);
  EXPECT_EQ(store.resident_bytes(), 3u);
  EXPECT_EQ(store.take_for({1, 2}, 5.0), (codec::Buffer{10, 20, 30}));
  EXPECT_EQ(store.block_count(), 0u);
  EXPECT_EQ(store.resident_bytes(), 0u);
}

TEST(BlockStore, TakeForTimesOutWhenBlockNeverArrives) {
  BlockStore store;
  const auto t0 = Clock::now();
  EXPECT_EQ(store.take_for({9, 9}, 0.05), std::nullopt);
  EXPECT_GT(seconds(t0, Clock::now()), 0.03);
}

TEST(BlockStore, TakeForWaitsForPutBeforeDeadline) {
  BlockStore store;
  std::jthread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    store.put({5, 6}, {42});
  });
  const auto t0 = Clock::now();
  const auto data = store.take_for({5, 6}, 5.0);
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->front(), 42);
  EXPECT_GT(seconds(t0, Clock::now()), 0.01);  // waited for the put
  EXPECT_EQ(store.block_count(), 0u);
}

TEST(BlockStore, ClearWipesEverything) {
  BlockStore store;
  store.put({1, 1}, {1, 2});
  store.put({2, 1}, {3});
  EXPECT_EQ(store.clear(), 3u);
  EXPECT_EQ(store.block_count(), 0u);
  EXPECT_EQ(store.resident_bytes(), 0u);
}

TEST(BlockStore, DropCoflowRemovesAllItsBlocks) {
  BlockStore store;
  store.put({1, 1}, {1, 1});
  store.put({1, 2}, {2, 2, 2});
  store.put({2, 1}, {3});
  EXPECT_EQ(store.drop_coflow(1), 5u);
  EXPECT_EQ(store.block_count(), 1u);
  EXPECT_EQ(store.drop_coflow(99), 0u);
}

TEST(BufferPool, TracksAllocationAndReclaim) {
  BufferPool pool;
  auto b1 = pool.allocate(1000);
  auto b2 = pool.allocate(500);
  pool.release(std::move(b1));
  const auto stats = pool.stats();
  EXPECT_EQ(stats.allocations, 2u);
  EXPECT_EQ(stats.releases, 1u);
  EXPECT_EQ(stats.bytes_allocated, 1500u);
  EXPECT_EQ(stats.bytes_released, 1000u);
  EXPECT_GE(stats.reclaim_time, 0.0);
  pool.release(std::move(b2));
}

TEST(BufferPool, ReclaimTimeGrowsWithBytes) {
  BufferPool big, small;
  for (int i = 0; i < 50; ++i) big.release(big.allocate(1 << 20));
  for (int i = 0; i < 50; ++i) small.release(small.allocate(1 << 10));
  EXPECT_GT(big.stats().reclaim_time, small.stats().reclaim_time);
}

TEST(PortGate, LowerKeyGoesFirst) {
  PortGate gate;
  const PortGate::Ticket held = gate.acquire({5, 0});  // hold the port
  std::vector<int> order;
  std::mutex order_mutex;
  std::jthread late([&] {
    const PortGate::Ticket ticket = gate.acquire({10, 0});
    {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(10);
    }
    gate.release(ticket);
  });
  std::jthread early([&] {
    // Give the key-10 waiter time to queue up first.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const PortGate::Ticket ticket = gate.acquire({1, 0});
    {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(1);
    }
    gate.release(ticket);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  gate.release(held);  // both waiters queued: key 1 must win
  late.join();
  early.join();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 10);
}

ClusterConfig fast_config(bool compress = true) {
  ClusterConfig config;
  config.num_workers = 4;
  config.nic_rate = 512.0 * 1024 * 1024;  // fast NIC keeps tests quick
  config.smart_compress = compress;
  // A model whose Eq. 3 gate stays open at this NIC speed.
  config.codec_model = codec::CodecModel{"test", 4e9, 8e9, 0.5};
  return config;
}

// Argument `arg` ("gamma" or "key") of the newest coflow_estimate event
// of each coflow in `tracer`.
std::map<std::uint64_t, double> traced_estimates(const obs::Tracer& tracer,
                                                 std::string_view arg) {
  std::map<std::uint64_t, double> out;
  for (const obs::TraceEvent& ev : tracer.events()) {
    if (std::string_view(ev.name) != "coflow_estimate") continue;
    std::uint64_t coflow = 0;
    double value = 0;
    for (const obs::Arg& a : ev.args) {
      if (a.key == nullptr) break;
      if (std::string_view(a.key) == "coflow")
        coflow = std::get<std::uint64_t>(a.value);
      if (arg == a.key) value = std::get<double>(a.value);
    }
    out[coflow] = value;
  }
  return out;
}

TEST(Master, AddScheduleRemoveLifecycle) {
  Cluster cluster(fast_config());
  Master& master = cluster.master();
  CoflowInfo info;
  info.flows = {{1, 0, 1, 1000, true}, {2, 0, 2, 500, true}};
  const CoflowRef ref = master.add(std::move(info));
  EXPECT_TRUE(master.has_coflow(ref));

  const SchedResult result = master.scheduling({ref});
  ASSERT_EQ(result.order.size(), 1u);
  EXPECT_EQ(result.order[0], ref);
  ASSERT_EQ(result.keys.size(), 1u);
  EXPECT_TRUE(result.decisions.at(1).compress);
  EXPECT_EQ(master.key_of(ref), kUnscheduled);
  master.alloc(result);
  EXPECT_EQ(master.key_of(ref), result.keys[0]);
  EXPECT_TRUE(master.decision_of(1).compress);

  EXPECT_EQ(master.remove(ref), (std::vector<RtFlowId>{1, 2}));
  EXPECT_FALSE(master.has_coflow(ref));
  EXPECT_FALSE(master.decision_of(1).compress);
  EXPECT_TRUE(master.remove(ref).empty());
  EXPECT_THROW(master.scheduling({ref}), std::out_of_range);
}

TEST(Master, AddRefusesAFlowIdAlreadyRegistered) {
  Cluster cluster(fast_config());
  Master& master = cluster.master();
  CoflowInfo a, twice, again;
  a.flows = {{1, 0, 1, 1000, true}};
  twice.flows = {{2, 0, 1, 1000, true}, {2, 0, 2, 1000, true}};
  again.flows = {{3, 0, 1, 1000, true}, {1, 0, 2, 1000, true}};
  const CoflowRef ra = master.add(std::move(a));
  EXPECT_THROW(master.add(std::move(twice)), std::invalid_argument);
  EXPECT_THROW(master.add(std::move(again)), std::invalid_argument);
  // A refused coflow registers none of its flows.
  master.alloc(master.scheduling({ra}));
  EXPECT_FALSE(master.decision_of(2).compress);
  EXPECT_FALSE(master.decision_of(3).compress);
  master.remove(ra);
  CoflowInfo reuse;
  reuse.flows = {{1, 0, 1, 1000, true}, {3, 0, 2, 1000, true}};
  EXPECT_NO_THROW(master.add(std::move(reuse)));
}

TEST(Master, RemoveLeavesNoStaleKeysOrDecisions) {
  Cluster cluster(fast_config());
  Master& master = cluster.master();
  CoflowInfo a, b;
  a.flows = {{1, 0, 1, 1000, true}, {2, 0, 2, 500, true}};
  b.flows = {{3, 1, 2, 800, true}};
  const CoflowRef ra = master.add(std::move(a));
  const CoflowRef rb = master.add(std::move(b));
  const SchedResult result = master.scheduling({ra, rb});
  ASSERT_EQ(result.order, (std::vector<CoflowRef>{ra, rb}));
  master.alloc(result);
  EXPECT_EQ(master.key_of(ra), result.keys[0]);
  EXPECT_EQ(master.key_of(rb), result.keys[1]);
  for (const RtFlowId flow : {1, 2, 3})
    EXPECT_TRUE(master.decision_of(flow).compress) << flow;

  master.remove(ra);  // only coflow b's key and decision remain
  EXPECT_EQ(master.key_of(ra), kUnscheduled);
  EXPECT_FALSE(master.decision_of(1).compress);
  EXPECT_FALSE(master.decision_of(2).compress);
  EXPECT_EQ(master.key_of(rb), result.keys[1]);
  EXPECT_TRUE(master.decision_of(3).compress);
  master.remove(rb);
  EXPECT_EQ(master.key_of(rb), kUnscheduled);
  EXPECT_FALSE(master.decision_of(3).compress);

  // The flow ids come back unscheduled under a new coflow.
  CoflowInfo again;
  again.flows = {{1, 0, 1, 1000, true}, {3, 1, 2, 800, true}};
  const CoflowRef rc = master.add(std::move(again));
  EXPECT_EQ(master.key_of(rc), kUnscheduled);
  EXPECT_FALSE(master.decision_of(1).compress);
  EXPECT_FALSE(master.decision_of(3).compress);
}

TEST(Master, StaleAllocAfterRemoveDoesNotResurrectState) {
  Cluster cluster(fast_config());
  Master& master = cluster.master();
  CoflowInfo info;
  info.flows = {{1, 0, 1, 1000, true}};
  const CoflowRef ref = master.add(std::move(info));
  const SchedResult result = master.scheduling({ref});
  master.remove(ref);
  // A SchedResult computed before remove() must not leak entries back in.
  master.alloc(result);
  EXPECT_FALSE(master.has_coflow(ref));
  EXPECT_EQ(master.key_of(ref), kUnscheduled);
  EXPECT_FALSE(master.decision_of(1).compress);
  CoflowInfo again;
  again.flows = {{1, 0, 1, 1000, true}};
  master.add(std::move(again));
  EXPECT_FALSE(master.decision_of(1).compress);
}

// Eq. 7 gives Γ_F = δ + max(0, V − R·h·δ·(1 − ξ)) / B for a compressing
// flow, so a flow one compression slice disposes of ties at Γ_F = δ.
// fast_config's floor is R·h·δ·(1 − ξ) = 4e9 · 0.9 · 0.01 · 0.5 = 18 MB,
// above both the 10 MB and the 1 KB coflow: both tie at Γ_C = δ and go
// by ref, the big one (registered first) first.
TEST(Master, CoflowsUnderTheSliceFloorTieAtDeltaAndGoByRef) {
  Cluster cluster(fast_config());
  Master& master = cluster.master();
  CoflowInfo big, small;
  big.flows = {{1, 0, 1, 10'000'000, true}};
  small.flows = {{2, 0, 1, 1'000, true}};
  const CoflowRef big_ref = master.add(std::move(big));
  const CoflowRef small_ref = master.add(std::move(small));
  const SchedResult result = master.scheduling({big_ref, small_ref});
  ASSERT_EQ(result.order.size(), 2u);
  EXPECT_EQ(result.order[0], big_ref);
  EXPECT_EQ(result.order[1], small_ref);
}

// Above that 18 MB floor Γ_F = 0.01 + (V − 18 MB) / 512 MiB/s: 0.163 s for
// 100 MB and 0.032 s for 30 MB, so the smaller coflow goes first although
// it registered last.
TEST(Master, FvdfOrdersSmallerExpectedCompletionFirstAboveTheSliceFloor) {
  Cluster cluster(fast_config());
  Master& master = cluster.master();
  CoflowInfo big, small;
  big.flows = {{1, 0, 1, 100'000'000, true}};
  small.flows = {{2, 0, 1, 30'000'000, true}};
  const CoflowRef big_ref = master.add(std::move(big));
  const CoflowRef small_ref = master.add(std::move(small));
  const SchedResult result = master.scheduling({big_ref, small_ref});
  EXPECT_EQ(result.order, (std::vector<CoflowRef>{small_ref, big_ref}));
}

// Each shuffle job schedules and applies its own coflow alone. Coflows
// scheduled apart must still meet at a port gate in FVDF order: the 30 MB
// coflow A (Γ = 0.032 s) goes ahead of the 100 MB coflow B (0.163 s),
// although B was scheduled last and queued at the gate first.
TEST(Master, GatesServeCoflowsScheduledApartInFvdfOrder) {
  Cluster cluster(fast_config());
  Master& master = cluster.master();
  CoflowInfo a, b;
  a.flows = {{1, 0, 1, 30'000'000, true}};
  b.flows = {{2, 0, 1, 100'000'000, true}};
  const CoflowRef ra = master.add(std::move(a));
  master.alloc(master.scheduling({ra}));
  const CoflowRef rb = master.add(std::move(b));
  master.alloc(master.scheduling({rb}));
  EXPECT_LT(master.key_of(ra), master.key_of(rb));

  PortGate& gate = cluster.worker(0).egress_gate();
  const PortGate::Ticket held = gate.acquire({0, 0});  // hold the port
  std::vector<CoflowRef> served;
  std::mutex served_mutex;
  const auto take_turn = [&](CoflowRef ref) {
    const PortGate::Ticket ticket = gate.acquire({master.key_of(ref), ref});
    {
      std::lock_guard<std::mutex> lock(served_mutex);
      served.push_back(ref);
    }
    gate.release(ticket);
  };
  {
    std::jthread first_b([&] { take_turn(rb); });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    std::jthread then_a([&] { take_turn(ra); });
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    gate.release(held);  // both waiters queued: A must win
  }
  EXPECT_EQ(served, (std::vector<CoflowRef>{ra, rb}));
}

// Eq. 7 by hand, on NICs of B = 1 MB/s with R = 100 MB/s at h = 1,
// ξ = 0.5 and δ = 10 ms:
//   A, 10 MB compressible:  β = 1, R·h·δ·(1 − ξ) = 0.5 MB, so
//                           Γ_A = 0.01 + (10 − 0.5) MB / B = 9.51 s;
//   B, 6 MB incompressible: β = 0, B·δ = 10 KB, so
//                           Γ_B = 0.01 + 5.99 MB / B = 6.00 s.
// B goes first. (Encode time plus compressed wire time, 0.1 + 5 = 5.1 s,
// would put A first.) Two failures degrade A's flow, which is then priced
// as incompressible: 0.01 + 9.99 MB / B = 10.00 s.
TEST(Master, OrdersByEq7ExpectedCompletion) {
  obs::Tracer tracer;
  Master master(2, 1e6, codec::CodecModel{"hand", 100e6, 200e6, 0.5}, 1.0,
                true, &tracer, /*degrade_after=*/2);
  CoflowInfo a, b;
  a.flows = {{1, 0, 1, 10'000'000, true}};
  b.flows = {{2, 1, 0, 6'000'000, false}};
  const CoflowRef ra = master.add(std::move(a));
  const CoflowRef rb = master.add(std::move(b));

  SchedResult result = master.scheduling({ra, rb});
  EXPECT_EQ(result.order, (std::vector<CoflowRef>{rb, ra}));
  EXPECT_TRUE(result.decisions.at(1).compress);
  EXPECT_FALSE(result.decisions.at(2).compress);
  auto gamma = traced_estimates(tracer, "gamma");
  EXPECT_NEAR(gamma.at(ra), 9.51, 1e-9);
  EXPECT_NEAR(gamma.at(rb), 6.00, 1e-9);

  master.record_flow_failure(1);
  master.record_flow_failure(1);
  result = master.scheduling({ra, rb});
  EXPECT_EQ(result.order, (std::vector<CoflowRef>{rb, ra}));
  EXPECT_FALSE(result.decisions.at(1).compress);
  EXPECT_TRUE(result.decisions.at(1).degraded);
  gamma = traced_estimates(tracer, "gamma");
  EXPECT_NEAR(gamma.at(ra), 10.00, 1e-9);
  EXPECT_NEAR(gamma.at(rb), 6.00, 1e-9);
}

// The master ranks a seeded population as the simulator's FVDF does: 20
// coflows of 1-3 flows of 1-41 MB, 70% compressible, on 4 workers at
// 4 MB/s with Table II's LZ4 at 90% headroom. The master's order is the
// ascending rank-key order of the coflow_estimate events
// core::FvdfScheduler emits on the same flows, fabric, CPU and codec (no
// tracker, so it evaluates every coflow). Runtime flow ids are seeded
// 64-bit values; the simulator's are dense.
TEST(Master, OrdersCoflowsAsTheSimulatorsFvdfRanksThem) {
  constexpr std::size_t kWorkers = 4;
  constexpr common::Bps kNic = 4e6;
  constexpr double kHeadroom = 0.9;
  const codec::CodecModel& model = codec::default_codec_model();
  Master master(kWorkers, kNic, model, kHeadroom, /*compression=*/true);

  common::Rng rng(28);
  std::vector<fabric::Flow> flows;
  std::vector<fabric::Coflow> coflows(20);
  std::vector<CoflowRef> refs;
  for (std::size_t c = 0; c < coflows.size(); ++c) {
    coflows[c].id = c;
    CoflowInfo info;
    for (std::uint64_t k = rng.uniform_int(1, 3); k > 0; --k) {
      fabric::Flow f;
      f.id = flows.size();
      f.coflow = c;
      f.src = static_cast<fabric::PortId>(rng.uniform_int(0, kWorkers - 1));
      f.dst = static_cast<fabric::PortId>(rng.uniform_int(0, kWorkers - 1));
      const std::size_t bytes = rng.uniform_int(1'000'000, 41'000'000);
      f.original_bytes = f.raw_remaining = static_cast<common::Bytes>(bytes);
      f.compressible = rng.bernoulli(0.7);
      coflows[c].flows.push_back(f.id);
      info.flows.push_back(
          FlowInfo{rng.next_u64(), f.src, f.dst, bytes, f.compressible});
      flows.push_back(f);
    }
    refs.push_back(master.add(std::move(info)));
  }
  const std::vector<CoflowRef> order = master.scheduling(refs).order;

  obs::Tracer tracer;
  const fabric::Fabric fabric(kWorkers, kNic);
  const cpu::ConstantCpu cpu(kHeadroom);
  sched::SchedContext ctx;
  ctx.fabric = &fabric;
  ctx.cpu = &cpu;
  ctx.codec = &model;
  ctx.sink = &tracer;
  for (const fabric::Flow& f : flows) ctx.flows.push_back(&f);
  for (fabric::Coflow& c : coflows) ctx.coflows.push_back(&c);
  core::FvdfScheduler(core::FvdfVariant::kFvdf).schedule(ctx);
  std::vector<std::pair<double, CoflowRef>> keyed;
  for (const auto& [id, key] : traced_estimates(tracer, "key"))
    keyed.emplace_back(key, refs.at(id));
  ASSERT_EQ(keyed.size(), coflows.size());
  std::sort(keyed.begin(), keyed.end());
  std::vector<CoflowRef> expected;
  for (const auto& [key, ref] : keyed) expected.push_back(ref);
  EXPECT_EQ(order, expected);
}

// An unknown ref fails the whole call before any coflow ages: the
// master's state bytes are unchanged by it.
TEST(Master, SchedulingChecksEveryRefBeforeAging) {
  Cluster cluster(fast_config());
  Master& master = cluster.master();
  CoflowInfo info;
  info.flows = {{1, 0, 1, 1000, true}};
  const CoflowRef ref = master.add(std::move(info));
  recovery::StateWriter before, after;
  master.save_state(before);
  EXPECT_THROW(master.scheduling({ref, ref + 1}), std::out_of_range);
  master.save_state(after);
  EXPECT_TRUE(std::ranges::equal(before.buffer(), after.buffer()));
}

TEST(Master, CompressionGateClosesOnFastNic) {
  ClusterConfig config = fast_config();
  // Table II LZ4 against a NIC faster than R(1-xi).
  config.codec_model = codec::default_codec_model();
  config.nic_rate = common::gbps(10);
  Cluster cluster(config);
  CoflowInfo info;
  info.flows = {{1, 0, 1, 1000, true}};
  const CoflowRef ref = cluster.master().add(std::move(info));
  const SchedResult result = cluster.master().scheduling({ref});
  EXPECT_FALSE(result.decisions.at(1).compress);
}

TEST(Master, SmartCompressOffDisablesCompression) {
  Cluster cluster(fast_config(/*compress=*/false));
  CoflowInfo info;
  info.flows = {{1, 0, 1, 1000, true}};
  const CoflowRef ref = cluster.master().add(std::move(info));
  const SchedResult result = cluster.master().scheduling({ref});
  EXPECT_FALSE(result.decisions.at(1).compress);
}

TEST(Context, PushPullRoundtripCompressed) {
  Cluster cluster(fast_config());
  SwallowContext ctx(cluster);
  common::Rng rng(3);
  const codec::Buffer payload = codec::text_bytes(50'000, rng);

  cluster.worker(0).register_flow({1, 0, 1, payload.size(), true});
  auto flows = ctx.hook(0);
  ASSERT_EQ(flows.size(), 1u);
  EXPECT_TRUE(ctx.hook(0).empty());  // hook drains

  const CoflowRef ref = ctx.add(ctx.aggregate(std::move(flows)));
  ctx.alloc(ctx.scheduling({ref}));

  ctx.push(ref, {{1, 1}}, payload, 0);
  // Compression happened: wire bytes below raw bytes.
  EXPECT_LT(cluster.total_wire_bytes(), payload.size());
  EXPECT_EQ(cluster.total_raw_bytes(), payload.size());

  const codec::Buffer restored = ctx.pull(ref, 1, 1);
  EXPECT_EQ(restored, payload);
  ctx.remove(ref);
  EXPECT_EQ(cluster.worker(1).store().block_count(), 0u);
}

TEST(Context, PushWithoutCompressionKeepsBytes) {
  Cluster cluster(fast_config(/*compress=*/false));
  SwallowContext ctx(cluster);
  common::Rng rng(4);
  const codec::Buffer payload = codec::text_bytes(20'000, rng);
  cluster.worker(0).register_flow({1, 0, 1, payload.size(), true});
  const CoflowRef ref = ctx.add(ctx.aggregate(ctx.hook(0)));
  ctx.alloc(ctx.scheduling({ref}));
  ctx.push(ref, {{1, 1}}, payload, 0);
  EXPECT_GE(cluster.total_wire_bytes(), payload.size());
  EXPECT_EQ(ctx.pull(ref, 1, 1), payload);
}

// A two-target push encodes its payload once and lands the same frame at
// both receivers that two single-target pushes land; both pull back to the
// payload. A target whose flow the master degraded to uncompressed takes
// its own frame.
TEST(Context, MultiTargetPushLandsTheFramesOfSingleTargetPushes) {
  common::Rng rng(7);
  const codec::Buffer payload = codec::text_bytes(600'000, rng);  // 3 chunks
  struct Sent {
    std::vector<codec::Buffer> frames;
    std::size_t chunks_encoded;
    std::size_t wire_bytes;
  };
  const auto send = [&](bool one_push, bool degrade_second = false) {
    Cluster cluster(fast_config());
    SwallowContext ctx(cluster);
    cluster.worker(0).register_flow({1, 0, 1, payload.size(), true});
    cluster.worker(0).register_flow({2, 0, 2, payload.size(), true});
    const CoflowRef ref = ctx.add(ctx.aggregate(ctx.hook(0)));
    ctx.alloc(ctx.scheduling({ref}));
    if (degrade_second) {
      for (int i = 0; i < cluster.config().retry.degrade_after; ++i)
        cluster.master().record_flow_failure(2);
      EXPECT_FALSE(cluster.master().decision_of(2).compress);
    }
    if (one_push) {
      ctx.push(ref, {{1, 1}, {2, 2}}, payload, 0);
    } else {
      ctx.push(ref, {{1, 1}}, payload, 0);
      ctx.push(ref, {{2, 2}}, payload, 0);
    }
    Sent sent{{}, cluster.ledger().chunks_encoded(),
              cluster.total_wire_bytes()};
    for (const BlockId block : {1, 2}) {
      const auto dst = static_cast<WorkerId>(block);
      const BlockKey key{ref, block};
      auto frame = cluster.worker(dst).store().take_for(key, 0);
      EXPECT_TRUE(frame.has_value()) << block;
      if (!frame) continue;
      sent.frames.push_back(*frame);
      cluster.worker(dst).store().put(key, std::move(*frame));
      EXPECT_EQ(ctx.pull(ref, block, dst), payload) << block;
    }
    ctx.remove(ref);
    return sent;
  };
  const Sent together = send(true);
  const Sent apart = send(false);
  ASSERT_EQ(together.frames.size(), 2u);
  ASSERT_EQ(apart.frames.size(), 2u);
  EXPECT_LT(together.frames[0].size(), payload.size());  // compressed
  EXPECT_EQ(together.frames[0], together.frames[1]);
  EXPECT_EQ(together.frames, apart.frames);
  EXPECT_EQ(together.wire_bytes, apart.wire_bytes);
  EXPECT_EQ(together.chunks_encoded, 3u);
  EXPECT_EQ(apart.chunks_encoded, 6u);

  const Sent mixed = send(true, /*degrade_second=*/true);
  ASSERT_EQ(mixed.frames.size(), 2u);
  EXPECT_EQ(mixed.frames[0], together.frames[0]);
  EXPECT_EQ(mixed.frames[1],
            codec::chunk_compress(codec::NullCodec(), payload));
  EXPECT_EQ(mixed.chunks_encoded, 6u);
}

TEST(Shuffle, JobRoundtripsAndReducesTraffic) {
  Cluster cluster(fast_config());
  ShuffleJobConfig job;
  job.app = codec::app_by_name("Sort");
  job.mappers = 3;
  job.reducers = 2;
  job.bytes_per_partition = 32 * 1024;
  const ShuffleReport report = run_shuffle_job(cluster, job);
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.raw_bytes, 3u * 2u * 32u * 1024u);
  EXPECT_LT(report.wire_bytes, report.raw_bytes);
  // Sort's Table I ratio ~ 0.25: expect substantial reduction.
  EXPECT_GT(report.traffic_reduction(), 0.5);
  EXPECT_GT(report.jct, 0.0);
  EXPECT_GE(report.map_pool.releases, 6u);
  EXPECT_GE(report.reduce_pool.releases, 6u);
}

TEST(Shuffle, CompressionOffMovesAllBytes) {
  Cluster cluster(fast_config(/*compress=*/false));
  ShuffleJobConfig job;
  job.app = codec::app_by_name("Sort");
  job.mappers = 2;
  job.reducers = 2;
  job.bytes_per_partition = 16 * 1024;
  const ShuffleReport report = run_shuffle_job(cluster, job);
  EXPECT_TRUE(report.verified);
  EXPECT_GE(report.wire_bytes, report.raw_bytes);  // container overhead
  EXPECT_LT(report.traffic_reduction(), 0.01);
}

TEST(Shuffle, ConcurrentJobsShareTheCluster) {
  Cluster cluster(fast_config());
  ShuffleJobConfig job;
  job.app = codec::app_by_name("Pagerank");
  job.mappers = 2;
  job.reducers = 2;
  job.bytes_per_partition = 8 * 1024;
  ShuffleReport a, b;
  {
    std::jthread j1([&] { a = run_shuffle_job(cluster, job); });
    ShuffleJobConfig job2 = job;
    job2.seed = 2;
    std::jthread j2([&] { b = run_shuffle_job(cluster, job2); });
  }
  EXPECT_TRUE(a.verified);
  EXPECT_TRUE(b.verified);
  // Full lifecycle leaves no master bookkeeping behind: the two jobs'
  // coflows (refs 1 and 2) hold no key, and their flows (ids
  // seed · 1e6 + 1 .. 4) no decision.
  const Master& master = cluster.master();
  for (const CoflowRef ref : {1, 2}) {
    EXPECT_FALSE(master.has_coflow(ref)) << ref;
    EXPECT_EQ(master.key_of(ref), kUnscheduled) << ref;
  }
  for (const RtFlowId seed : {1, 2})
    for (RtFlowId flow = seed * 1'000'000 + 1; flow <= seed * 1'000'000 + 4;
         ++flow)
      EXPECT_FALSE(master.decision_of(flow).compress) << flow;
}

TEST(Shuffle, ResultStageReplicatesOutputs) {
  Cluster cluster(fast_config());
  ShuffleJobConfig job;
  job.app = codec::app_by_name("Sort");
  job.mappers = 2;
  job.reducers = 2;
  job.bytes_per_partition = 16 * 1024;
  job.result_replicas = 2;
  const ShuffleReport report = run_shuffle_job(cluster, job);
  EXPECT_TRUE(report.verified);
  EXPECT_GT(report.result_time, 0.0);
  // Raw bytes triple: shuffle + two replica writes of the same volume.
  EXPECT_EQ(report.raw_bytes, 3u * 2u * 2u * 16u * 1024u);
  // Replicated traffic is compressed too.
  EXPECT_GT(report.traffic_reduction(), 0.5);
  // One encode per reducer output, not one per replica: each of the 2 x 2
  // partitions (16 KiB) and each 32 KiB output is one chunk.
  EXPECT_EQ(report.chunks_encoded, 2u * 2u + 2u);
  // remove() cleaned both coflows' blocks everywhere.
  for (WorkerId w = 0; w < cluster.size(); ++w)
    EXPECT_EQ(cluster.worker(w).store().block_count(), 0u) << w;
}

// Tracing observes a shuffle and never changes it: a cluster with a
// Tracer sends the wire bytes an untraced one sends, and the trace counts
// what ran — one codec.chunk_encode and one codec.chunk_decode span per
// chunk the ledger counted (the chunk pool carries the sink), and one
// runtime.push.gate_wait span per runtime.push.transfer. 16 KiB chunks
// split each 48 KiB partition into three, and the replicated result stage
// sends frames encoded once for two targets.
TEST(Shuffle, TracedClusterSendsTheSameBytesAndItsSpansCountWhatRan) {
  ShuffleJobConfig job;
  job.app = codec::app_by_name("Sort");
  job.mappers = 2;
  job.reducers = 2;
  job.bytes_per_partition = 48 * 1024;
  job.result_replicas = 2;
  ClusterConfig config = fast_config();
  config.chunk_bytes = 16 * 1024;
  Cluster plain(config);
  const ShuffleReport untraced = run_shuffle_job(plain, job);

  obs::Tracer tracer;
  config.sink = &tracer;
  Cluster traced(config);
  const ShuffleReport report = run_shuffle_job(traced, job);
  EXPECT_EQ(report.wire_bytes, untraced.wire_bytes);
  EXPECT_EQ(report.chunks_encoded, untraced.chunks_encoded);
  EXPECT_EQ(report.chunks_decoded, untraced.chunks_decoded);

  ASSERT_EQ(tracer.dropped(), 0u);
  std::map<std::string_view, std::size_t> spans;
  for (const obs::TraceEvent& ev : tracer.events())
    if (ev.ph == 'X') ++spans[ev.name];
  EXPECT_GT(report.chunks_encoded, 2u * 2u);
  EXPECT_EQ(spans["codec.chunk_encode"], report.chunks_encoded);
  EXPECT_EQ(spans["codec.chunk_decode"], report.chunks_decoded);
  EXPECT_EQ(spans["runtime.push.transfer"], 2u * 2u + 2u * 2u);
  EXPECT_EQ(spans["runtime.push.gate_wait"], spans["runtime.push.transfer"]);
}

TEST(Shuffle, RejectsZeroTasks) {
  Cluster cluster(fast_config());
  ShuffleJobConfig job;
  job.mappers = 0;
  EXPECT_THROW(run_shuffle_job(cluster, job), std::invalid_argument);
}

TEST(Cluster, RejectsZeroWorkers) {
  ClusterConfig config;
  config.num_workers = 0;
  EXPECT_THROW(Cluster{config}, std::invalid_argument);
  ClusterConfig no_chunks;
  no_chunks.chunk_bytes = 0;
  EXPECT_THROW(Cluster{no_chunks}, std::invalid_argument);
}

}  // namespace
}  // namespace swallow::runtime
