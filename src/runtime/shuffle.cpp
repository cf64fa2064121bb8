#include "runtime/shuffle.hpp"

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "codec/checksum.hpp"
#include "obs/profile.hpp"

namespace swallow::runtime {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// jthread fan-out that survives exceptions: a ShuffleError thrown on a
/// mapper/reducer thread is captured (first one wins) and rethrown on the
/// calling thread after everyone joined — an uncaught throw in a jthread
/// would std::terminate the process instead of failing the job.
class TaskGroup {
 public:
  template <typename F>
  void spawn(F&& fn) {
    threads_.emplace_back([this, fn = std::forward<F>(fn)]() mutable {
      try {
        fn();
      } catch (...) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
    });
  }

  void join_and_rethrow() {
    threads_.clear();  // jthread dtors join
    if (first_error_) std::rethrow_exception(first_error_);
  }

 private:
  std::vector<std::jthread> threads_;
  std::mutex mutex_;
  std::exception_ptr first_error_;
};

}  // namespace

ShuffleReport run_shuffle_job(Cluster& cluster,
                              const ShuffleJobConfig& config) {
  if (config.mappers == 0 || config.reducers == 0)
    throw std::invalid_argument("shuffle: zero tasks");

  SwallowContext ctx(cluster);
  ShuffleReport report;
  report.app = config.app.name;

  BufferPool map_pool, reduce_pool;
  const FaultStats faults_before = cluster.fault_stats();
  const std::size_t chunks_enc_before = cluster.ledger().chunks_encoded();
  const std::size_t chunks_dec_before = cluster.ledger().chunks_decoded();
  const auto job_start = Clock::now();

  // ---- Map stage: generate partitions, register flows. ----
  // blockId doubles as the flow id the master keys its decisions on; the
  // seed-derived base keeps concurrent jobs' flow ids disjoint.
  const BlockId base = config.seed * 1'000'000;
  auto block_id = [&](std::size_t m, std::size_t r) {
    return static_cast<BlockId>(base + m * config.reducers + r + 1);
  };
  auto mapper_worker = [&](std::size_t m) {
    return static_cast<WorkerId>(m % cluster.size());
  };
  auto reducer_worker = [&](std::size_t r) {
    return static_cast<WorkerId>((config.mappers + r) % cluster.size());
  };

  std::vector<codec::Buffer> partitions(config.mappers * config.reducers);
  std::map<BlockId, std::uint64_t> checksums;
  std::mutex checksum_mutex;

  {
    obs::ProfileScope stage(cluster.sink(), "shuffle.map", "runtime");
    std::vector<std::jthread> map_tasks;
    map_tasks.reserve(config.mappers);
    for (std::size_t m = 0; m < config.mappers; ++m) {
      map_tasks.emplace_back([&, m] {
        common::Rng rng(config.seed * 1000003 + m);
        for (std::size_t r = 0; r < config.reducers; ++r) {
          codec::Buffer part = map_pool.allocate(config.bytes_per_partition);
          const codec::Buffer payload =
              config.app.generate(config.bytes_per_partition, rng);
          std::copy(payload.begin(), payload.end(), part.begin());
          const BlockId id = block_id(m, r);
          {
            std::lock_guard<std::mutex> lock(checksum_mutex);
            checksums[id] = codec::checksum64(part);
          }
          cluster.worker(mapper_worker(m))
              .register_flow(FlowInfo{id, mapper_worker(m), reducer_worker(r),
                                      part.size(), /*compressible=*/true});
          partitions[m * config.reducers + r] = std::move(part);
        }
      });
    }
  }
  report.map_time = seconds_since(job_start);

  // ---- Driver: hook -> aggregate -> add -> scheduling -> alloc. ----
  std::vector<FlowInfo> all_flows;
  for (WorkerId w = 0; w < cluster.size(); ++w) {
    auto flows = ctx.hook(w);
    all_flows.insert(all_flows.end(), flows.begin(), flows.end());
  }
  CoflowInfo info = ctx.aggregate(std::move(all_flows));
  const CoflowRef ref = ctx.add(std::move(info));
  ctx.alloc(ctx.scheduling({ref}));

  // ---- Shuffle stage: concurrent pushes and pulls. ----
  const std::size_t wire_before = cluster.total_wire_bytes();
  const auto shuffle_start = Clock::now();
  std::atomic<bool> verified{true};
  std::atomic<BlockId> first_bad_block{0};
  double reduce_seconds = 0;
  std::mutex reduce_mutex;
  std::vector<codec::Buffer> outputs(config.reducers);
  {
    obs::ProfileScope stage(cluster.sink(), "shuffle.transfer", "runtime");
    TaskGroup tasks;
    for (std::size_t m = 0; m < config.mappers; ++m) {
      tasks.spawn([&, m] {
        for (std::size_t r = 0; r < config.reducers; ++r) {
          const std::size_t idx = m * config.reducers + r;
          ctx.push(ref, {{block_id(m, r), reducer_worker(r)}},
                   partitions[idx], mapper_worker(m));
          map_pool.release(std::move(partitions[idx]));
        }
      });
    }
    for (std::size_t r = 0; r < config.reducers; ++r) {
      tasks.spawn([&, r] {
        std::uint64_t sink = 0;
        double my_reduce = 0;
        codec::Buffer output;
        if (config.result_replicas > 0)
          output.reserve(config.mappers * config.bytes_per_partition);
        for (std::size_t m = 0; m < config.mappers; ++m) {
          const BlockId id = block_id(m, r);
          codec::Buffer data =
              ctx.pull(ref, id, reducer_worker(r), &reduce_pool);
          const auto t0 = Clock::now();
          std::uint64_t expected;
          {
            std::lock_guard<std::mutex> lock(checksum_mutex);
            expected = checksums.at(id);
          }
          if (codec::checksum64(data) != expected) {
            verified = false;
            BlockId none = 0;
            first_bad_block.compare_exchange_strong(none, id);
          }
          // "Reduce": fold the bytes into the sink and keep the output for
          // the optional result stage.
          for (const std::uint8_t b : data) sink += b;
          if (config.result_replicas > 0)
            output.insert(output.end(), data.begin(), data.end());
          my_reduce += seconds_since(t0);
        }
        outputs[r] = std::move(output);
        std::lock_guard<std::mutex> lock(reduce_mutex);
        reduce_seconds += my_reduce;
        (void)sink;
      });
    }
    try {
      tasks.join_and_rethrow();
    } catch (...) {
      ctx.remove(ref);  // failed jobs must not leak master/store state
      throw;
    }
  }
  report.shuffle_time = seconds_since(shuffle_start);
  report.reduce_time = reduce_seconds;

  ctx.remove(ref);

  // ---- Result stage: replicate reducer outputs over the network (the
  // paper's "save output as Hadoop files"). Its traffic rides the same
  // compression decision machinery as the shuffle. ----
  if (config.result_replicas > 0) {
    obs::ProfileScope stage(cluster.sink(), "shuffle.result", "runtime");
    const auto result_start = Clock::now();
    auto result_block = [&](std::size_t r, std::size_t k) {
      return static_cast<BlockId>(base + 500'000 + r * 100 + k);
    };
    auto replica_worker = [&](std::size_t r, std::size_t k) {
      return static_cast<WorkerId>((reducer_worker(r) + k + 1) %
                                   cluster.size());
    };
    for (std::size_t r = 0; r < config.reducers; ++r) {
      for (std::size_t k = 0; k < config.result_replicas; ++k) {
        cluster.worker(reducer_worker(r))
            .register_flow(FlowInfo{result_block(r, k), reducer_worker(r),
                                    replica_worker(r, k), outputs[r].size(),
                                    true});
      }
    }
    std::vector<FlowInfo> result_flows;
    for (WorkerId w = 0; w < cluster.size(); ++w) {
      auto flows = ctx.hook(w);
      result_flows.insert(result_flows.end(), flows.begin(), flows.end());
    }
    const CoflowRef result_ref = ctx.add(ctx.aggregate(std::move(result_flows)));
    ctx.alloc(ctx.scheduling({result_ref}));
    {
      TaskGroup writers;
      for (std::size_t r = 0; r < config.reducers; ++r) {
        // One push per output: every replica whose decision matches gets
        // the frame encoded for the first.
        writers.spawn([&, r] {
          std::vector<PushTarget> replicas;
          for (std::size_t k = 0; k < config.result_replicas; ++k)
            replicas.push_back({result_block(r, k), replica_worker(r, k)});
          ctx.push(result_ref, replicas, outputs[r], reducer_worker(r));
        });
      }
      try {
        writers.join_and_rethrow();
      } catch (...) {
        ctx.remove(result_ref);
        throw;
      }
    }
    ctx.remove(result_ref);
    report.result_time = seconds_since(result_start);
  }

  report.jct = seconds_since(job_start);
  report.raw_bytes =
      config.mappers * config.reducers * config.bytes_per_partition *
      (1 + config.result_replicas);
  report.wire_bytes = cluster.total_wire_bytes() - wire_before;
  report.map_pool = map_pool.stats();
  report.reduce_pool = reduce_pool.stats();
  report.verified = verified.load();

  const FaultStats faults_after = cluster.fault_stats();
  report.faults_injected =
      faults_after.total_injected() - faults_before.total_injected();
  report.retries = faults_after.retries - faults_before.retries;
  report.retransmits = faults_after.retransmits - faults_before.retransmits;
  report.corrupt_frames =
      faults_after.corrupt_frames - faults_before.corrupt_frames;
  report.pull_timeouts =
      faults_after.pull_timeouts - faults_before.pull_timeouts;
  report.gate_evictions =
      faults_after.gate_evictions - faults_before.gate_evictions;
  report.degraded_flows =
      faults_after.degraded_flows - faults_before.degraded_flows;

  report.encode_mbps = cluster.ledger().encode_mbps();
  report.decode_mbps = cluster.ledger().decode_mbps();
  report.chunks_encoded =
      cluster.ledger().chunks_encoded() - chunks_enc_before;
  report.chunks_decoded =
      cluster.ledger().chunks_decoded() - chunks_dec_before;

  if (!report.verified) {
    const BlockId bad = first_bad_block.load();
    throw ShuffleError(ShuffleFailure::kVerification, ref, bad, bad);
  }
  return report;
}

}  // namespace swallow::runtime
