// Concurrency stress for the runtime primitives: many-thread port-gate
// ordering, rate-limiter aggregate accuracy under contention, block-store
// hammering, and a many-job shuffle storm with full payload verification.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "runtime/context.hpp"
#include "runtime/shuffle.hpp"

namespace swallow::runtime {
namespace {

using Clock = std::chrono::steady_clock;

TEST(PortGateStress, AllWaitersEventuallyPass) {
  PortGate gate;
  constexpr int kThreads = 16;
  std::atomic<int> inside{0};
  std::atomic<int> done{0};
  std::atomic<bool> overlap{false};
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&, i] {
        for (int round = 0; round < 20; ++round) {
          const PortGate::Ticket ticket =
              gate.acquire({(i * 7 + round) % 5, 0});
          if (inside.fetch_add(1) != 0) overlap = true;  // mutual exclusion
          std::this_thread::yield();
          inside.fetch_sub(1);
          gate.release(ticket);
        }
        done.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(done.load(), kThreads);
  EXPECT_FALSE(overlap.load());
}

TEST(PortGateStress, PriorityHoldsUnderChurn) {
  // A continuous stream of high-key (low-priority) holders; a late
  // low-key arrival must get through within a few handoffs.
  PortGate gate;
  std::atomic<bool> vip_done{false};
  std::atomic<int> handoffs_after_vip_queued{0};
  std::atomic<bool> vip_queued{false};
  std::jthread churn([&] {
    for (int i = 0; i < 4000 && !vip_done; ++i) {
      const PortGate::Ticket ticket = gate.acquire({100, 0});
      if (vip_queued && !vip_done) handoffs_after_vip_queued.fetch_add(1);
      gate.release(ticket);
      std::this_thread::yield();
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  vip_queued = true;
  const PortGate::Ticket vip = gate.acquire({1, 0});
  vip_done = true;
  gate.release(vip);
  churn.join();
  // The VIP can lose at most the in-flight acquisition plus scheduler
  // jitter — it must not wait out the whole churn stream.
  EXPECT_LT(handoffs_after_vip_queued.load(), 3000);
}

TEST(RateLimiterStress, AggregateThroughputMatchesRate) {
  constexpr double kRate = 8.0 * 1024 * 1024;  // 8 MiB/s
  RateLimiter limiter(kRate, 64 * 1024);
  constexpr int kThreads = 6;
  constexpr std::size_t kChunk = 64 * 1024;
  constexpr int kChunksPerThread = 8;

  const auto t0 = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (int i = 0; i < kThreads; ++i)
      threads.emplace_back([&] {
        for (int c = 0; c < kChunksPerThread; ++c) limiter.acquire(kChunk);
      });
  }
  const double elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  const double bytes = static_cast<double>(kThreads) * kChunksPerThread *
                       static_cast<double>(kChunk);
  // Expected ~ (bytes - burst) / rate = (3 MiB - 64 KiB) / 8 MiB/s ~ 0.37 s.
  const double expected = (bytes - 64 * 1024) / kRate;
  EXPECT_GT(elapsed, expected * 0.7);
  EXPECT_LT(elapsed, expected * 2.5);
}

TEST(BlockStoreStress, ConcurrentPutTake) {
  BlockStore store;
  constexpr int kProducers = 4;
  constexpr int kBlocksEach = 50;
  std::atomic<std::size_t> received_bytes{0};
  {
    std::vector<std::jthread> threads;
    for (int p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        for (int b = 0; b < kBlocksEach; ++b) {
          codec::Buffer data(static_cast<std::size_t>(p + 1) * 10 + b % 7,
                             static_cast<std::uint8_t>(b));
          store.put({static_cast<CoflowRef>(p), static_cast<BlockId>(b)},
                    std::move(data));
        }
      });
    }
    for (int p = 0; p < kProducers; ++p) {
      threads.emplace_back([&, p] {
        for (int b = 0; b < kBlocksEach; ++b) {
          const auto data = store.take_for(
              {static_cast<CoflowRef>(p), static_cast<BlockId>(b)}, 60.0);
          if (data) received_bytes.fetch_add(data->size());
        }
      });
    }
  }
  EXPECT_EQ(store.block_count(), 0u);
  EXPECT_EQ(store.resident_bytes(), 0u);
  std::size_t sent_bytes = 0;
  for (int p = 0; p < kProducers; ++p)
    for (int b = 0; b < kBlocksEach; ++b)
      sent_bytes += static_cast<std::size_t>(p + 1) * 10 + b % 7;
  EXPECT_EQ(received_bytes.load(), sent_bytes);
}

TEST(ShuffleStress, ManyConcurrentJobsAllVerify) {
  ClusterConfig config;
  config.num_workers = 6;
  config.nic_rate = 256.0 * 1024 * 1024;
  config.codec_model =
      codec::CodecModel{"t", 4e9, 8e9, 0.5};  // gate open at this NIC
  Cluster cluster(config);

  constexpr int kJobs = 8;
  std::vector<ShuffleReport> reports(kJobs);
  {
    std::vector<std::jthread> jobs;
    for (int j = 0; j < kJobs; ++j) {
      jobs.emplace_back([&, j] {
        ShuffleJobConfig job;
        job.app = codec::table1_apps()[static_cast<std::size_t>(j) % 11];
        job.mappers = 2 + j % 3;
        job.reducers = 1 + j % 2;
        job.bytes_per_partition = 8 * 1024 + 1024 * (j % 5);
        job.seed = static_cast<std::uint64_t>(j + 1);
        reports[static_cast<std::size_t>(j)] = run_shuffle_job(cluster, job);
      });
    }
  }
  for (const auto& report : reports) {
    EXPECT_TRUE(report.verified) << report.app;
    EXPECT_GT(report.jct, 0.0);
  }
  // Each job registered one coflow, refs 1..kJobs, and removed it.
  for (CoflowRef ref = 1; ref <= kJobs; ++ref)
    EXPECT_FALSE(cluster.master().has_coflow(ref)) << ref;
  // Traffic accounting is globally consistent.
  EXPECT_GT(cluster.total_raw_bytes(), 0u);
  EXPECT_LT(cluster.total_wire_bytes(), cluster.total_raw_bytes());
}

}  // namespace
}  // namespace swallow::runtime
