// Fig. 7(a) — deployment-style JCT improvement per stage.
// Paper: Swallow cuts the shuffle stage up to 1.90x, the result stage up to
// 2.12x, and JCT by 1.66x on average, measured on its 100-VM Spark cluster.
// Here the in-process runtime executes real map->shuffle->reduce jobs with
// real bytes through real compression, with and without Swallow. JCT
// includes the map stage (synthetic payload generation), which Swallow does
// not schedule; its seconds are printed on both sides so its share shows.
#include <cmath>

#include "bench_common.hpp"
#include "runtime/shuffle.hpp"

int main(int argc, char** argv) {
  using namespace swallow;
  const common::Flags flags(argc, argv);
  const auto part = static_cast<std::size_t>(
      flags.get_int("partition_bytes", 192 * 1024));

  bench::print_header(
      "Fig. 7(a) - JCT improvement over stages (runtime, real bytes)",
      "Paper: shuffle stage <=1.90x, result stage <=2.12x, JCT 1.66x avg");

  runtime::ClusterConfig base;
  base.num_workers = 6;
  base.nic_rate = 24.0 * 1024 * 1024;  // scaled-down NIC: shuffle-bound jobs
  base.codec = codec::CodecKind::kLzBalanced;
  // Gate stays open at this NIC speed for the measured swlz parameters.
  base.codec_model = codec::CodecModel{"swlz", 500.0 * common::kMB,
                                       1500.0 * common::kMB, 0.45};

  const char* apps[] = {"Sort", "Terasort", "Wordcount", "Pagerank"};
  common::Table table({"Application", "shuffle speedup", "result speedup",
                       "JCT speedup", "traffic reduction", "map (Swallow)",
                       "map (without)"});
  double jct_product = 1.0;
  int count = 0;
  for (const char* app_name : apps) {
    runtime::ShuffleJobConfig job;
    job.app = codec::app_by_name(app_name);
    job.mappers = 4;
    job.reducers = 3;
    job.bytes_per_partition = part;
    job.result_replicas = 2;  // "save output as Hadoop files" stage
    job.seed = 7;

    runtime::ClusterConfig on = base;
    on.smart_compress = true;
    runtime::ClusterConfig off = base;
    off.smart_compress = false;

    runtime::Cluster with_swallow(on), without(off);
    const auto compressed = runtime::run_shuffle_job(with_swallow, job);
    const auto plain = runtime::run_shuffle_job(without, job);

    const double jct_speedup = plain.jct / compressed.jct;
    jct_product *= jct_speedup;
    ++count;
    table.add_row(
        {app_name,
         common::fmt_speedup(plain.shuffle_time / compressed.shuffle_time),
         common::fmt_speedup(plain.result_time / compressed.result_time),
         common::fmt_speedup(jct_speedup),
         common::fmt_percent(compressed.traffic_reduction()),
         common::fmt_double(compressed.map_time, 4) + " s",
         common::fmt_double(plain.map_time, 4) + " s"});
  }
  table.print(std::cout);
  std::cout << "geometric-mean JCT speedup: "
            << common::fmt_speedup(std::pow(jct_product, 1.0 / count))
            << " (paper average 1.66x)\n";
  return 0;
}
