// Wall-clock measurement of a codec's speed and ratio on a payload; backs
// the Table II reproduction for our from-scratch codecs. ThroughputLedger
// is the live counterpart: the chunked data plane (chunk.hpp) feeds it one
// sample per chunk, and calibrate() folds the samples into a CodecModel so
// the simulator's speed/ratio assumptions track what the machine actually
// does.
#pragma once

#include <atomic>

#include "codec/codec.hpp"
#include "codec/codec_model.hpp"

namespace swallow::codec {

struct ThroughputResult {
  double compress_mbps;    ///< MB/s of raw input consumed while compressing
  double decompress_mbps;  ///< MB/s of raw output produced while decompressing
  double ratio;            ///< compressed/raw
};

/// Runs `repeats` compress+decompress cycles over `payload` and reports the
/// best (least-noisy) cycle. Verifies the roundtrip and throws CodecError on
/// mismatch, so a benchmark can never silently report a broken codec.
ThroughputResult measure_codec(const Codec& codec,
                               std::span<const std::uint8_t> payload,
                               int repeats = 3);

/// Thread-safe accumulator of measured per-chunk codec throughput. Encode
/// and decode workers record each chunk as it finishes (lock-free atomics:
/// safe from any pool thread); readers see cumulative MB/s and ratio.
class ThroughputLedger {
 public:
  void record_encode(std::size_t raw_bytes, std::size_t wire_bytes,
                     double seconds);
  void record_decode(std::size_t raw_bytes, double seconds);

  /// Cumulative MB/s of raw bytes through encode (0 with no samples).
  double encode_mbps() const;
  /// Cumulative MB/s of raw bytes out of decode (0 with no samples).
  double decode_mbps() const;
  /// Cumulative wire/raw ratio (1.0 with no samples).
  double ratio() const;
  std::uint64_t chunks_encoded() const {
    return enc_chunks_.load(std::memory_order_relaxed);
  }
  std::uint64_t chunks_decoded() const {
    return dec_chunks_.load(std::memory_order_relaxed);
  }

  /// Folds the measured samples into a CodecModel for the simulator:
  /// measured compress/decompress speeds and ratio where samples exist,
  /// `base`'s numbers where they do not. The returned model is named
  /// "<base>.measured" so reports show which runs used live calibration.
  CodecModel calibrate(const CodecModel& base) const;

 private:
  std::atomic<std::uint64_t> enc_raw_{0}, enc_wire_{0}, enc_chunks_{0};
  std::atomic<std::uint64_t> dec_raw_{0}, dec_chunks_{0};
  std::atomic<double> enc_seconds_{0.0}, dec_seconds_{0.0};
};

}  // namespace swallow::codec
