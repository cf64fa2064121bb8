// swlz: an LZ77 byte compressor with an LZ4-style block format.
//
// Sequence layout (repeated): a token byte whose high nibble is the literal
// count and low nibble is (match length - 4), each nibble extended by 255-run
// bytes when it saturates; then the literals; then a 2-byte little-endian
// match offset (1..65535). The final sequence carries literals only.
//
// Three presets trade speed for ratio, standing in for the LZ4 / Snappy /
// Zstandard points of the paper's Table II:
//   kFast      - small hash table + skip acceleration (fastest, worst ratio)
//   kBalanced  - full hash table, greedy matching
//   kHigh      - hash chains with bounded search depth (slowest, best ratio)
#pragma once

#include "codec/codec.hpp"

namespace swallow::codec {

enum class LzPreset { kFast, kBalanced, kHigh };

class LzCodec final : public Codec {
 public:
  explicit LzCodec(LzPreset preset);

  std::string name() const override;
  std::uint8_t id() const override;

  LzPreset preset() const { return preset_; }

 protected:
  std::size_t encode(std::span<const std::uint8_t> in,
                     std::span<std::uint8_t> out) const override;
  void decode(std::span<const std::uint8_t> in,
              std::span<std::uint8_t> out) const override;
  std::size_t max_payload_size(std::size_t raw) const override;

 private:
  std::size_t encode_hash(std::span<const std::uint8_t> in,
                          std::span<std::uint8_t> out, int hash_bits,
                          bool accelerate) const;
  std::size_t encode_chain(std::span<const std::uint8_t> in,
                           std::span<std::uint8_t> out) const;

  LzPreset preset_;
};

}  // namespace swallow::codec
