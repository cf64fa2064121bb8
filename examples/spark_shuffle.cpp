// The paper's Section V-B usage example, in C++: a cluster framework
// driving a shuffle through the SwallowContext API (Table IV). This mirrors
// the Scala snippet line by line — hook, aggregate, add, scheduling, alloc,
// push on the mapper side, pull on the reducer side, remove at the end —
// with real bytes moving through real compression over rate-limited links.
#include <atomic>
#include <iostream>
#include <thread>
#include <vector>

#include "codec/synth_data.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "obs/cli.hpp"
#include "runtime/context.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  using namespace swallow::runtime;
  const common::Flags flags(argc, argv);
  common::apply_log_level_flag(flags);
  // --trace-out records master decisions, per-push/pull wall-clock spans
  // and the chunk pool's per-chunk codec spans.
  const std::unique_ptr<obs::Tracer> tracer = obs::tracer_from_flags(flags);
  const auto block_bytes =
      static_cast<std::size_t>(flags.get_int("block_bytes", 96 * 1024));

  // A 4-worker cluster; NIC slow enough that Eq. 3 keeps compression on.
  ClusterConfig config;
  config.num_workers = 4;
  config.nic_rate = 32.0 * 1024 * 1024;
  config.smart_compress = flags.get_bool("smartCompress", true);
  config.codec_model = codec::CodecModel{"swlz", 500.0 * common::kMB,
                                         1500.0 * common::kMB, 0.45};
  // Chunked codec data plane (DESIGN.md §14): --chunk-bytes sets the SWF2
  // chunk size blocks are split at (must be positive); --codec-threads
  // sizes the worker pool every transfer's encode/decode jobs share
  // (0 = auto: min(4, hardware threads)).
  config.chunk_bytes = static_cast<std::size_t>(flags.get_int(
      "chunk-bytes", static_cast<long>(codec::kDefaultChunkBytes)));
  config.codec_threads =
      static_cast<unsigned>(flags.get_int("codec-threads", 0));
  config.sink = tracer.get();
  // --fault-rate injects drops/corruptions/stalls/codec failures on every
  // block with that probability; --fault-seed picks the (deterministic)
  // fault pattern. The shuffle below then exercises the retry/retransmit
  // machinery and still verifies every payload.
  const double fault_rate = flags.get_double("fault-rate", 0.0);
  if (fault_rate > 0) {
    config.fault.enabled = true;
    config.fault.set_uniform_rate(fault_rate);
    config.fault.stall_duration = 0.02;
    config.fault.seed =
        static_cast<std::uint64_t>(flags.get_int("fault-seed", 1));
    config.retry.pull_timeout = 0.25;
  }
  Cluster cluster(config);
  SwallowContext sc(cluster);  // "val sc = new SwallowContext()"

  // Map side: two mappers (workers 0, 1) each produce one partition per
  // reducer (workers 2, 3) and register the flows.
  const auto& app = codec::app_by_name("Wordcount");
  std::vector<codec::Buffer> partitions;
  RtFlowId next_flow = 1;
  for (WorkerId mapper : {0u, 1u}) {
    common::Rng rng(mapper + 1);
    for (WorkerId reducer : {2u, 3u}) {
      partitions.push_back(app.generate(block_bytes, rng));
      cluster.worker(mapper).register_flow(
          {next_flow++, mapper, reducer, block_bytes, true});
    }
  }

  // Driver: val flowInfo = sc.hook(executor)
  //         val coflowInfo = sc.aggregate(flowInfo)
  //         val coflowRef = sc.add(coflowInfo)
  std::vector<FlowInfo> flow_info;
  for (WorkerId w = 0; w < cluster.size(); ++w)
    for (const auto& info : sc.hook(w)) flow_info.push_back(info);
  CoflowInfo coflow_info = sc.aggregate(std::move(flow_info));
  const CoflowRef coflow_ref = sc.add(std::move(coflow_info));

  // ClusterManager: sc.alloc(sc.scheduling(coflowRefs))
  const SchedResult result = sc.scheduling({coflow_ref});
  sc.alloc(result);
  std::cout << "scheduled coflow " << coflow_ref << ": "
            << result.decisions.size() << " flows, compression "
            << (result.decisions.begin()->second.compress ? "ON" : "OFF")
            << " (Eq. 3 against " << config.nic_rate / (1024 * 1024)
            << " MiB/s NIC)\n";

  // Senders: for (receiver <- reduceExecutors) sc.push(...)
  // Receivers: for (sender <- mapExecutors) sc.pull(...)
  std::atomic<bool> failed{false};
  {
    std::vector<std::jthread> tasks;
    RtFlowId flow = 1;
    std::size_t index = 0;
    for (WorkerId mapper : {0u, 1u}) {
      for (WorkerId reducer : {2u, 3u}) {
        tasks.emplace_back([&sc, &failed, coflow_ref, flow, mapper, reducer,
                            payload = partitions[index]] {
          try {
            sc.push(coflow_ref, {{flow, reducer}}, payload, mapper);
          } catch (const ShuffleError& e) {
            std::cout << "push failed: " << e.what() << '\n';
            failed = true;
          }
        });
        ++flow;
        ++index;
      }
    }
    for (WorkerId reducer : {2u, 3u}) {
      tasks.emplace_back([&sc, &failed, coflow_ref, reducer] {
        // Each reducer pulls the two blocks addressed to it.
        for (RtFlowId flow = 1; flow <= 4; ++flow) {
          const bool mine = (flow % 2 == 1) == (reducer == 2);
          if (!mine) continue;
          try {
            const codec::Buffer data = sc.pull(coflow_ref, flow, reducer);
            std::cout << "reducer on worker " << reducer << " pulled block "
                      << flow << " (" << data.size() << " bytes)\n";
          } catch (const ShuffleError& e) {
            std::cout << "pull failed: " << e.what() << '\n';
            failed = true;
          }
        }
      });
    }
  }

  // Driver: sc.remove(coflowRef)
  sc.remove(coflow_ref);

  const std::size_t raw = cluster.total_raw_bytes();
  const std::size_t wire = cluster.total_wire_bytes();
  std::cout << "\nshuffle moved " << raw << " payload bytes as " << wire
            << " wire bytes ("
            << common::fmt_percent(1.0 - static_cast<double>(wire) /
                                             static_cast<double>(raw))
            << " traffic reduction)\n";
  if (fault_rate > 0) {
    const FaultStats stats = cluster.fault_stats();
    std::cout << "faults injected: " << stats.total_injected()
              << " (drops " << stats.injected_drops << ", corruptions "
              << stats.injected_corruptions << ", stalls "
              << stats.injected_stalls << ", codec "
              << stats.injected_codec_failures << "); recovery: "
              << stats.retries << " retries, " << stats.retransmits
              << " retransmits, " << stats.degraded_flows
              << " degraded flows\n";
  }
  if (tracer != nullptr) {
    if (!obs::write_trace_from_flags(flags, *tracer)) return 1;
    std::cout << "trace: " << tracer->size() << " events -> "
              << flags.get("trace-out", "") << '\n';
  }
  return failed ? 1 : 0;
}
