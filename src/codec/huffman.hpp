// Order-0 canonical Huffman codec.
//
// The LZ stage leaves literal bytes uncoded; an entropy stage squeezes the
// residual redundancy out (the same division of labour as DEFLATE and
// Zstandard). HuffmanCodec is usable standalone — it is the better choice
// for record-like payloads with skewed byte histograms but little
// repetition — and chained behind swlz-high it forms the repository's
// best-ratio preset (CodecKind::kLzHuff, "swlz-max").
//
// Payload layout: 256 code lengths (one byte each, 0 = absent symbol),
// then the MSB-first canonical bitstream. Because Huffman codes are
// optimal prefix codes, the bitstream never exceeds 8 bits/symbol, so the
// worst-case payload is raw + 256 + slack.
#pragma once

#include "codec/codec.hpp"

namespace swallow::codec {

class HuffmanCodec final : public Codec {
 public:
  std::string name() const override { return "huffman"; }
  std::uint8_t id() const override { return 5; }

 protected:
  std::size_t encode(std::span<const std::uint8_t> in,
                     std::span<std::uint8_t> out) const override;
  void decode(std::span<const std::uint8_t> in,
              std::span<std::uint8_t> out) const override;
  std::size_t max_payload_size(std::size_t raw) const override;
};

/// Two-stage codec: `outer(inner(data))`. decompress() reverses the chain.
/// The container carries the chain's own id; the stages' containers nest
/// inside, so integrity checks apply at both levels.
class ChainedCodec final : public Codec {
 public:
  ChainedCodec(std::unique_ptr<Codec> inner, std::unique_ptr<Codec> outer,
               std::string name, std::uint8_t id);

  std::string name() const override { return name_; }
  std::uint8_t id() const override { return id_; }

 protected:
  std::size_t encode(std::span<const std::uint8_t> in,
                     std::span<std::uint8_t> out) const override;
  void decode(std::span<const std::uint8_t> in,
              std::span<std::uint8_t> out) const override;
  std::size_t max_payload_size(std::size_t raw) const override;

 private:
  std::unique_ptr<Codec> inner_;
  std::unique_ptr<Codec> outer_;
  std::string name_;
  std::uint8_t id_;
};

}  // namespace swallow::codec
