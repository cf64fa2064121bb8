// Microbenchmarks for the swlz codec family: compression and decompression
// throughput per preset and payload type (google-benchmark), plus the
// chunk-parallel battery — serial vs 1/2/4-thread chunk_compress over the
// same corpus, asserting at runtime that every parallel frame is
// byte-identical to the serial one (exit 1 on mismatch: determinism is the
// SWF2 contract, not a statistical property). With SWALLOW_BENCH_JSON set
// the battery appends `chunk.<codec>.*_mbps` / `.p4.speedup` gauges for the
// CI regression gate (BENCH_codec.json).
//
// `--chunk-only` skips the google-benchmark suite; CI perf-smoke uses it to
// run just the battery.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "codec/chunk.hpp"
#include "codec/codec.hpp"
#include "codec/synth_data.hpp"

namespace {

using namespace swallow;

codec::Buffer payload_for(int kind, std::size_t n) {
  common::Rng rng(99);
  switch (kind) {
    case 0: return codec::text_bytes(n, rng);
    case 1: return codec::run_bytes(n, rng);
    case 2: return codec::random_bytes(n, rng);
    default: return codec::mixed_bytes(n, rng, 0.3);
  }
}

const char* payload_name(int kind) {
  switch (kind) {
    case 0: return "text";
    case 1: return "runs";
    case 2: return "random";
    default: return "mixed";
  }
}

void BM_Compress(benchmark::State& state) {
  const auto kind = static_cast<codec::CodecKind>(state.range(0));
  const auto codec = codec::make_codec(kind);
  const codec::Buffer input =
      payload_for(static_cast<int>(state.range(1)), 1 << 20);
  codec::Buffer out(codec->max_compressed_size(input.size()));
  std::size_t compressed = 0;
  for (auto _ : state) {
    compressed = codec->compress(input, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
  state.SetLabel(std::string(codec::codec_kind_name(kind)) + "/" +
                 payload_name(static_cast<int>(state.range(1))) + " ratio=" +
                 std::to_string(static_cast<double>(compressed) /
                                static_cast<double>(input.size())));
}

void BM_Decompress(benchmark::State& state) {
  const auto kind = static_cast<codec::CodecKind>(state.range(0));
  const auto codec = codec::make_codec(kind);
  const codec::Buffer input =
      payload_for(static_cast<int>(state.range(1)), 1 << 20);
  const codec::Buffer compressed = codec->compress(input);
  codec::Buffer out(input.size());
  for (auto _ : state) {
    codec->decompress(compressed, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(input.size()));
  state.SetLabel(std::string(codec::codec_kind_name(kind)) + "/" +
                 payload_name(static_cast<int>(state.range(1))));
}

void register_args(benchmark::internal::Benchmark* bench) {
  for (const auto kind :
       {codec::CodecKind::kLzFast, codec::CodecKind::kLzBalanced,
        codec::CodecKind::kLzHigh}) {
    for (int payload = 0; payload < 4; ++payload)
      bench->Args({static_cast<long>(kind), payload});
  }
}

BENCHMARK(BM_Compress)->Apply(register_args)->MinTime(0.1);
BENCHMARK(BM_Decompress)->Apply(register_args)->MinTime(0.1);

// ---- chunk-parallel battery ----

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best-of-`reps` wall-clock of one chunk_compress call, MB/s of raw input.
/// `out` receives the last frame produced (identical across reps).
double measure_encode_mbps(const codec::Codec& codec,
                           const codec::Buffer& payload,
                           codec::ChunkPool* pool, codec::Buffer& out,
                           int reps = 3) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    out = codec::chunk_compress(codec, payload, codec::kDefaultChunkBytes,
                                pool);
    best = std::min(best, now_seconds() - t0);
  }
  return static_cast<double>(payload.size()) / 1e6 / best;
}

double measure_decode_mbps(const codec::Buffer& frame,
                           const codec::Buffer& payload,
                           codec::ChunkPool* pool, bool& identical,
                           int reps = 3) {
  double best = 1e300;
  codec::Buffer out;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    out = codec::chunk_decompress(frame, pool);
    best = std::min(best, now_seconds() - t0);
  }
  identical = out == payload;
  return static_cast<double>(payload.size()) / 1e6 / best;
}

/// Serial vs 1/2/4-thread chunk encode/decode over a mixed corpus; records
/// gauges and returns false on any byte-identity violation.
bool run_chunk_battery(bench::Gauges& gauges) {
  common::Rng rng(7);
  const codec::Buffer payload = codec::mixed_bytes(4 << 20, rng, 0.3);
  const unsigned thread_counts[] = {1, 2, 4};
  bool ok = true;
  std::printf(
      "\nchunk-parallel battery: %zu MiB mixed corpus, %zu KiB chunks\n"
      "%-14s %12s %12s %12s %12s %10s %12s\n",
      payload.size() >> 20, codec::kDefaultChunkBytes >> 10, "codec",
      "serial MB/s", "p1 MB/s", "p2 MB/s", "p4 MB/s", "p4 spdup",
      "dec p4 MB/s");
  for (const auto kind :
       {codec::CodecKind::kHuffman, codec::CodecKind::kLzFast,
        codec::CodecKind::kLzBalanced}) {
    const auto codec = codec::make_codec(kind);
    const std::string name = codec::codec_kind_name(kind);
    codec::Buffer serial_frame;
    const double serial =
        measure_encode_mbps(*codec, payload, nullptr, serial_frame);
    gauges["chunk." + name + ".serial_mbps"] = serial;
    double p4 = serial;
    for (const unsigned threads : thread_counts) {
      codec::ChunkPool pool(threads);
      codec::Buffer frame;
      const double mbps = measure_encode_mbps(*codec, payload, &pool, frame);
      if (frame != serial_frame) {
        std::fprintf(stderr,
                     "FAIL: %s %u-thread chunk frame differs from serial "
                     "(determinism contract broken)\n",
                     name.c_str(), threads);
        ok = false;
      }
      gauges["chunk." + name + ".p" + std::to_string(threads) + "_mbps"] =
          mbps;
      if (threads == 4) p4 = mbps;
    }
    gauges["chunk." + name + ".p4.speedup"] = p4 / serial;
    codec::ChunkPool dec_pool(4);
    bool dec_identical = false;
    const double dec =
        measure_decode_mbps(serial_frame, payload, &dec_pool, dec_identical);
    if (!dec_identical) {
      std::fprintf(stderr, "FAIL: %s 4-thread chunk decode != payload\n",
                   name.c_str());
      ok = false;
    }
    gauges["chunk." + name + ".decode_p4_mbps"] = dec;
    std::printf("%-14s %12.1f %12.1f %12.1f %12.1f %9.2fx %12.1f\n",
                name.c_str(), serial, gauges.at("chunk." + name + ".p1_mbps"),
                gauges.at("chunk." + name + ".p2_mbps"), p4, p4 / serial, dec);
  }
  std::printf("(p4 spdup is p4 / serial encode as measured on this host; "
              "chunks are independent, so it is bounded by the cores the "
              "pool actually gets)\n\n");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool chunk_only = false;
  int n = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--chunk-only") == 0)
      chunk_only = true;
    else
      argv[n++] = argv[i];
  }
  argc = n;
  bench::Gauges gauges;
  const bool ok = run_chunk_battery(gauges);
  bench::write_bench_json("bench_codec_micro", gauges);
  if (!ok) return 1;
  if (chunk_only) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
