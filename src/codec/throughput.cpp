#include "codec/throughput.hpp"

#include <algorithm>
#include <chrono>

namespace swallow::codec {

namespace {
double mbps(std::size_t bytes, std::chrono::steady_clock::duration d) {
  const double secs = std::chrono::duration<double>(d).count();
  if (secs <= 0.0) return 0.0;
  return static_cast<double>(bytes) / (1024.0 * 1024.0) / secs;
}
}  // namespace

ThroughputResult measure_codec(const Codec& codec,
                               std::span<const std::uint8_t> payload,
                               int repeats) {
  using Clock = std::chrono::steady_clock;
  Buffer compressed(codec.max_compressed_size(payload.size()));
  Buffer restored(payload.size());

  double best_compress = 0.0, best_decompress = 0.0;
  std::size_t compressed_size = 0;
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = Clock::now();
    compressed_size = codec.compress(payload, compressed);
    const auto t1 = Clock::now();
    codec.decompress(
        std::span<const std::uint8_t>(compressed.data(), compressed_size),
        restored);
    const auto t2 = Clock::now();
    if (!std::equal(payload.begin(), payload.end(), restored.begin()))
      throw CodecError(codec.name() + ": roundtrip mismatch in measurement");
    best_compress = std::max(best_compress, mbps(payload.size(), t1 - t0));
    best_decompress = std::max(best_decompress, mbps(payload.size(), t2 - t1));
  }
  return {best_compress, best_decompress,
          compression_ratio(payload.size(), compressed_size)};
}

namespace {
double atomic_add_double(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
  return cur + v;
}

double safe_mbps(std::uint64_t bytes, double seconds) {
  if (seconds <= 0.0 || bytes == 0) return 0.0;
  return static_cast<double>(bytes) / (1024.0 * 1024.0) / seconds;
}
}  // namespace

void ThroughputLedger::record_encode(std::size_t raw_bytes,
                                     std::size_t wire_bytes, double seconds) {
  enc_raw_.fetch_add(raw_bytes, std::memory_order_relaxed);
  enc_wire_.fetch_add(wire_bytes, std::memory_order_relaxed);
  enc_chunks_.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(enc_seconds_, seconds);
}

void ThroughputLedger::record_decode(std::size_t raw_bytes, double seconds) {
  dec_raw_.fetch_add(raw_bytes, std::memory_order_relaxed);
  dec_chunks_.fetch_add(1, std::memory_order_relaxed);
  atomic_add_double(dec_seconds_, seconds);
}

double ThroughputLedger::encode_mbps() const {
  return safe_mbps(enc_raw_.load(std::memory_order_relaxed),
                   enc_seconds_.load(std::memory_order_relaxed));
}

double ThroughputLedger::decode_mbps() const {
  return safe_mbps(dec_raw_.load(std::memory_order_relaxed),
                   dec_seconds_.load(std::memory_order_relaxed));
}

double ThroughputLedger::ratio() const {
  const std::uint64_t raw = enc_raw_.load(std::memory_order_relaxed);
  if (raw == 0) return 1.0;
  return static_cast<double>(enc_wire_.load(std::memory_order_relaxed)) /
         static_cast<double>(raw);
}

CodecModel ThroughputLedger::calibrate(const CodecModel& base) const {
  CodecModel m = base;
  m.name = base.name + ".measured";
  const std::uint64_t enc_raw = enc_raw_.load(std::memory_order_relaxed);
  const double enc_s = enc_seconds_.load(std::memory_order_relaxed);
  if (enc_raw > 0 && enc_s > 0.0) {
    m.compress_speed = static_cast<double>(enc_raw) / enc_s;
    m.ratio = ratio();
  }
  const std::uint64_t dec_raw = dec_raw_.load(std::memory_order_relaxed);
  const double dec_s = dec_seconds_.load(std::memory_order_relaxed);
  if (dec_raw > 0 && dec_s > 0.0)
    m.decompress_speed = static_cast<double>(dec_raw) / dec_s;
  return m;
}

}  // namespace swallow::codec
