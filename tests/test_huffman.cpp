// Huffman and chained-codec tests: entropy bounds on known distributions,
// where the entropy stage beats LZ (skewed histograms without repetition),
// where the chain wins, and corrupt-table rejection.
#include <gtest/gtest.h>

#include "codec/codec.hpp"
#include "codec/huffman.hpp"
#include "codec/synth_data.hpp"

namespace swallow::codec {
namespace {

using common::Rng;

double ratio_of(const Codec& codec, const Buffer& payload) {
  return compression_ratio(payload.size(), codec.compress(payload).size());
}

TEST(Huffman, SkewedDistributionApproachesEntropy) {
  // 90% 'a', 10% others: H ~ 0.47 + spread ~ well under 2 bits/symbol.
  Rng rng(1);
  Buffer data;
  for (int i = 0; i < 100000; ++i)
    data.push_back(rng.bernoulli(0.9)
                       ? 'a'
                       : static_cast<std::uint8_t>(rng.uniform_int('b', 'j')));
  const HuffmanCodec codec;
  const double r = ratio_of(codec, data);
  EXPECT_LT(r, 0.25);   // < 2 bits/byte
  EXPECT_GT(r, 0.05);   // entropy floor ~ 0.85 bits/byte
  EXPECT_EQ(codec.decompress(codec.compress(data)), data);
}

TEST(Huffman, UniformBytesCostEightBitsPlusHeader) {
  Rng rng(2);
  const Buffer data = random_bytes(100000, rng);
  const HuffmanCodec codec;
  const Buffer compressed = codec.compress(data);
  EXPECT_LE(compressed.size(), codec.max_compressed_size(data.size()));
  EXPECT_GT(compression_ratio(data.size(), compressed.size()), 0.99);
}

TEST(Huffman, BeatsLzOnSkewedNonRepetitiveData) {
  // Numeric records: digit-heavy histogram, little long-range repetition —
  // the order-0 entropy stage wins where string matching cannot.
  Rng rng(3);
  const Buffer records = record_bytes(1 << 17, rng);
  const double huffman = ratio_of(HuffmanCodec(), records);
  const double lz = ratio_of(*make_codec(CodecKind::kLzBalanced), records);
  EXPECT_LT(huffman, lz);
}

TEST(Huffman, SingleSymbolPayload) {
  const HuffmanCodec codec;
  const Buffer data(5000, 0x7a);
  const Buffer compressed = codec.compress(data);
  // One code of length 1: ~ 5000 bits + header.
  EXPECT_LT(compressed.size(), 1000u);
  EXPECT_EQ(codec.decompress(compressed), data);
}

TEST(Huffman, TwoSymbolAlternation) {
  Buffer data;
  for (int i = 0; i < 9999; ++i) data.push_back(i % 2 ? 0x00 : 0xff);
  const HuffmanCodec codec;
  const Buffer compressed = codec.compress(data);
  EXPECT_NEAR(static_cast<double>(compressed.size()),
              256.0 + 11.0 + 9999.0 / 8.0, 16.0);
  EXPECT_EQ(codec.decompress(compressed), data);
}

TEST(Huffman, RejectsInvalidCodeTable) {
  const HuffmanCodec codec;
  Buffer data{'x', 'y', 'z', 'x', 'y', 'x'};
  Buffer compressed = codec.compress(data);
  // Locate the header (after container id + varint size) and over-fill the
  // code table: three symbols all claiming length 1 violates Kraft.
  const std::size_t header_start = 2;  // id byte + 1-byte varint for size 6
  Buffer corrupt = compressed;
  corrupt[header_start + 'x'] = 1;
  corrupt[header_start + 'y'] = 1;
  corrupt[header_start + 'z'] = 1;
  EXPECT_THROW(codec.decompress(corrupt), CodecError);
  // Absurd code length is rejected before table construction.
  Buffer bad_len = compressed;
  bad_len[header_start + 'x'] = 200;
  EXPECT_THROW(codec.decompress(bad_len), CodecError);
}

TEST(Huffman, TruncatedBitstreamThrows) {
  const HuffmanCodec codec;
  Rng rng(4);
  const Buffer data = text_bytes(5000, rng);
  Buffer compressed = codec.compress(data);
  compressed.resize(compressed.size() - 20);
  EXPECT_THROW(codec.decompress(compressed), CodecError);
}

TEST(ChainedCodec, SwlzMaxHasTheBestRatioOnText) {
  Rng rng(5);
  const Buffer text = text_bytes(1 << 17, rng);
  const double high = ratio_of(*make_codec(CodecKind::kLzHigh), text);
  const double chained = ratio_of(*make_codec(CodecKind::kLzHuff), text);
  EXPECT_LT(chained, high);
}

TEST(ChainedCodec, RatioOrderingAcrossTheFamily) {
  Rng rng(6);
  const Buffer payload = mixed_bytes(1 << 17, rng, 0.1);
  const double fast = ratio_of(*make_codec(CodecKind::kLzFast), payload);
  const double high = ratio_of(*make_codec(CodecKind::kLzHigh), payload);
  const double max = ratio_of(*make_codec(CodecKind::kLzHuff), payload);
  EXPECT_LE(high, fast + 1e-9);
  EXPECT_LE(max, high + 1e-9);
}

TEST(ChainedCodec, NestedContainersValidateBothStages) {
  const auto codec = make_codec(CodecKind::kLzHuff);
  Rng rng(7);
  const Buffer payload = text_bytes(20000, rng);
  Buffer compressed = codec->compress(payload);
  EXPECT_EQ(codec->decompress(compressed), payload);
  EXPECT_EQ(codec_for_id(compressed[0]).decompress(compressed), payload);
  // Truncation is caught by the outer (Huffman) stage already.
  compressed.resize(compressed.size() / 2);
  EXPECT_THROW(codec->decompress(compressed), CodecError);
}

}  // namespace
}  // namespace swallow::codec
