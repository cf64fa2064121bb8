// Runtime tests: rate limiter, block store, buffer pool, port gate
// ordering, master scheduling, the Table IV SwallowContext API, and
// end-to-end shuffle jobs with payload verification.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "codec/null_codec.hpp"
#include "runtime/context.hpp"
#include "runtime/shuffle.hpp"

namespace swallow::runtime {
namespace {

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

TEST(PortGate, LowerRankGoesFirst) {
  PortGate gate;
  const PortGate::Ticket held = gate.acquire(5);  // hold the port
  std::vector<int> order;
  std::mutex order_mutex;
  std::jthread late([&] {
    const PortGate::Ticket ticket = gate.acquire(10);
    {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(10);
    }
    gate.release(ticket);
  });
  std::jthread early([&] {
    // Give the rank-10 waiter time to queue up first.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const PortGate::Ticket ticket = gate.acquire(1);
    {
      std::lock_guard<std::mutex> lock(order_mutex);
      order.push_back(1);
    }
    gate.release(ticket);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  gate.release(held);  // both waiters queued: rank 1 must win
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

TEST(Master, AddScheduleRemoveLifecycle) {
  Cluster cluster(fast_config());
  Master& master = cluster.master();
  CoflowInfo info;
  info.flows = {{1, 0, 0, 1, 1000, true}, {2, 0, 0, 2, 500, true}};
  const CoflowRef ref = master.add(std::move(info));
  EXPECT_EQ(master.active_coflows(), 1u);

  const SchedResult result = master.scheduling({ref});
  ASSERT_EQ(result.order.size(), 1u);
  EXPECT_EQ(result.order[0], ref);
  EXPECT_TRUE(result.decisions.at(1).compress);
  master.alloc(result);
  EXPECT_EQ(master.rank_of(ref), 0u);
  EXPECT_TRUE(master.decision_of(1).compress);

  master.remove(ref);
  EXPECT_EQ(master.active_coflows(), 0u);
  EXPECT_FALSE(master.decision_of(1).compress);
  EXPECT_THROW(master.scheduling({ref}), std::out_of_range);
}

TEST(Master, RemoveLeavesNoStaleRanksOrDecisions) {
  Cluster cluster(fast_config());
  Master& master = cluster.master();
  CoflowInfo a, b;
  a.flows = {{1, 0, 0, 1, 1000, true}, {2, 0, 0, 2, 500, true}};
  b.flows = {{3, 0, 1, 2, 800, true}};
  const CoflowRef ra = master.add(std::move(a));
  const CoflowRef rb = master.add(std::move(b));
  master.alloc(master.scheduling({ra, rb}));
  EXPECT_EQ(master.decision_count(), 3u);
  EXPECT_EQ(master.rank_count(), 2u);

  master.remove(ra);
  EXPECT_EQ(master.decision_count(), 1u);  // only coflow b's flow remains
  EXPECT_EQ(master.rank_count(), 1u);
  master.remove(rb);
  EXPECT_EQ(master.decision_count(), 0u);
  EXPECT_EQ(master.rank_count(), 0u);
}

TEST(Master, StaleAllocAfterRemoveDoesNotResurrectState) {
  Cluster cluster(fast_config());
  Master& master = cluster.master();
  CoflowInfo info;
  info.flows = {{1, 0, 0, 1, 1000, true}};
  const CoflowRef ref = master.add(std::move(info));
  const SchedResult result = master.scheduling({ref});
  master.remove(ref);
  // A SchedResult computed before remove() must not leak entries back in.
  master.alloc(result);
  EXPECT_EQ(master.decision_count(), 0u);
  EXPECT_EQ(master.rank_count(), 0u);
}

TEST(Master, FvdfOrdersSmallerExpectedCompletionFirst) {
  Cluster cluster(fast_config());
  Master& master = cluster.master();
  CoflowInfo big, small;
  big.flows = {{1, 0, 0, 1, 10'000'000, true}};
  small.flows = {{2, 0, 0, 1, 1'000, true}};
  const CoflowRef big_ref = master.add(std::move(big));
  const CoflowRef small_ref = master.add(std::move(small));
  const SchedResult result = master.scheduling({big_ref, small_ref});
  ASSERT_EQ(result.order.size(), 2u);
  EXPECT_EQ(result.order[0], small_ref);
  EXPECT_EQ(result.order[1], big_ref);
}

TEST(Master, CompressionGateClosesOnFastNic) {
  ClusterConfig config = fast_config();
  // Table II LZ4 against a NIC faster than R(1-xi).
  config.codec_model = codec::default_codec_model();
  config.nic_rate = common::gbps(10);
  Cluster cluster(config);
  CoflowInfo info;
  info.flows = {{1, 0, 0, 1, 1000, true}};
  const CoflowRef ref = cluster.master().add(std::move(info));
  const SchedResult result = cluster.master().scheduling({ref});
  EXPECT_FALSE(result.decisions.at(1).compress);
}

TEST(Master, SmartCompressOffDisablesCompression) {
  Cluster cluster(fast_config(/*compress=*/false));
  CoflowInfo info;
  info.flows = {{1, 0, 0, 1, 1000, true}};
  const CoflowRef ref = cluster.master().add(std::move(info));
  const SchedResult result = cluster.master().scheduling({ref});
  EXPECT_FALSE(result.decisions.at(1).compress);
}

TEST(Context, PushPullRoundtripCompressed) {
  Cluster cluster(fast_config());
  SwallowContext ctx(cluster);
  common::Rng rng(3);
  const codec::Buffer payload = codec::text_bytes(50'000, rng);

  cluster.worker(0).register_flow({1, 0, 0, 1, payload.size(), true});
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
  cluster.worker(0).register_flow({1, 0, 0, 1, payload.size(), true});
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
    cluster.worker(0).register_flow({1, 0, 0, 1, payload.size(), true});
    cluster.worker(0).register_flow({2, 0, 0, 2, payload.size(), true});
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
  EXPECT_EQ(cluster.master().active_coflows(), 0u);
  // Full lifecycle leaves no master bookkeeping behind.
  EXPECT_EQ(cluster.master().decision_count(), 0u);
  EXPECT_EQ(cluster.master().rank_count(), 0u);
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
