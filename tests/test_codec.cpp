// Codec tests: roundtrip correctness across every codec and payload shape
// (parameterized), container self-description, corrupt-input rejection,
// ratio ordering across presets, and varint edge cases.
#include <gtest/gtest.h>

#include <tuple>

#include "codec/codec.hpp"
#include "codec/lz_codec.hpp"
#include "codec/null_codec.hpp"
#include "codec/rle_codec.hpp"
#include "codec/synth_data.hpp"
#include "codec/varint.hpp"

namespace swallow::codec {
namespace {

using common::Rng;

enum class Payload { kEmpty, kOneByte, kRandom, kRuns, kText, kRecords, kMixed };

Buffer make_payload(Payload kind, std::size_t n, Rng& rng) {
  switch (kind) {
    case Payload::kEmpty: return {};
    case Payload::kOneByte: return {0x42};
    case Payload::kRandom: return random_bytes(n, rng);
    case Payload::kRuns: return run_bytes(n, rng);
    case Payload::kText: return text_bytes(n, rng);
    case Payload::kRecords: return record_bytes(n, rng);
    case Payload::kMixed: return mixed_bytes(n, rng, 0.5);
  }
  return {};
}

class RoundtripTest
    : public ::testing::TestWithParam<std::tuple<CodecKind, Payload, int>> {};

std::string roundtrip_name(
    const ::testing::TestParamInfo<std::tuple<CodecKind, Payload, int>>&
        info) {
  static const char* kPayloadNames[] = {"Empty", "OneByte", "Random", "Runs",
                                        "Text",  "Records", "Mixed"};
  std::string s = codec_kind_name(std::get<0>(info.param));
  for (auto& c : s)
    if (c == '-') c = '_';
  return s + "_" + kPayloadNames[static_cast<int>(std::get<1>(info.param))] +
         "_" + std::to_string(std::get<2>(info.param));
}

TEST_P(RoundtripTest, CompressDecompressIsIdentity) {
  const auto [kind, payload_kind, size] = GetParam();
  Rng rng(static_cast<std::uint64_t>(size) * 31 +
          static_cast<std::uint64_t>(payload_kind));
  const Buffer original =
      make_payload(payload_kind, static_cast<std::size_t>(size), rng);
  const auto codec = make_codec(kind);

  const Buffer compressed = codec->compress(original);
  ASSERT_LE(compressed.size(), codec->max_compressed_size(original.size()));
  EXPECT_EQ(codec->decompressed_size(compressed), original.size());
  const Buffer restored = codec->decompress(compressed);
  EXPECT_EQ(restored, original);
}

TEST_P(RoundtripTest, ContainerIsSelfDescribing) {
  const auto [kind, payload_kind, size] = GetParam();
  Rng rng(7);
  const Buffer original =
      make_payload(payload_kind, static_cast<std::size_t>(size), rng);
  const auto codec = make_codec(kind);
  const Buffer compressed = codec->compress(original);
  EXPECT_EQ(codec_for_id(compressed[0]).decompress(compressed), original);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, RoundtripTest,
    ::testing::Combine(
        ::testing::Values(CodecKind::kNull, CodecKind::kRle,
                          CodecKind::kLzFast, CodecKind::kLzBalanced,
                          CodecKind::kLzHigh, CodecKind::kHuffman,
                          CodecKind::kLzHuff),
        ::testing::Values(Payload::kEmpty, Payload::kOneByte, Payload::kRandom,
                          Payload::kRuns, Payload::kText, Payload::kRecords,
                          Payload::kMixed),
        ::testing::Values(64, 4096, 262144)),
    roundtrip_name);

TEST(LzCodec, CompressesTextWell) {
  Rng rng(1);
  const Buffer text = text_bytes(1 << 18, rng);
  const LzCodec codec(LzPreset::kBalanced);
  const Buffer compressed = codec.compress(text);
  EXPECT_LT(compression_ratio(text.size(), compressed.size()), 0.6);
}

TEST(LzCodec, RandomDataStaysNearOriginalSize) {
  Rng rng(2);
  const Buffer noise = random_bytes(1 << 18, rng);
  const LzCodec codec(LzPreset::kBalanced);
  const Buffer compressed = codec.compress(noise);
  const double ratio = compression_ratio(noise.size(), compressed.size());
  EXPECT_GT(ratio, 0.98);
  EXPECT_LE(compressed.size(), codec.max_compressed_size(noise.size()));
}

TEST(LzCodec, HighPresetRatioBeatsFastPreset) {
  Rng rng(3);
  const Buffer text = text_bytes(1 << 18, rng);
  const auto fast = LzCodec(LzPreset::kFast).compress(text);
  const auto balanced = LzCodec(LzPreset::kBalanced).compress(text);
  const auto high = LzCodec(LzPreset::kHigh).compress(text);
  EXPECT_LE(high.size(), balanced.size());
  EXPECT_LE(balanced.size(), fast.size());
}

TEST(LzCodec, OverlappingMatchesReplicateRuns) {
  // A long single-byte run forces offset-1 overlapping copies on decode.
  Buffer run(100000, 0xaa);
  const LzCodec codec(LzPreset::kBalanced);
  const Buffer compressed = codec.compress(run);
  EXPECT_LT(compressed.size(), run.size() / 100);
  EXPECT_EQ(codec.decompress(compressed), run);
}

TEST(LzCodec, RejectsTruncatedContainer) {
  Rng rng(4);
  const Buffer text = text_bytes(4096, rng);
  const LzCodec codec(LzPreset::kBalanced);
  Buffer compressed = codec.compress(text);
  compressed.resize(compressed.size() / 2);
  EXPECT_THROW(codec.decompress(compressed), CodecError);
}

TEST(LzCodec, RejectsCorruptOffset) {
  // Hand-craft a container whose match offset points before the output.
  const LzCodec codec(LzPreset::kBalanced);
  Buffer original{'a', 'b', 'c', 'd', 'a', 'b', 'c', 'd'};
  Buffer compressed = codec.compress(original);
  // Flip payload bytes until decode fails or output differs; either way it
  // must never crash or read out of bounds.
  int detected = 0;
  for (std::size_t i = 2; i < compressed.size(); ++i) {
    Buffer corrupt = compressed;
    corrupt[i] ^= 0xff;
    try {
      const Buffer out = codec.decompress(corrupt);
      if (out != original) ++detected;
    } catch (const CodecError&) {
      ++detected;
    }
  }
  EXPECT_GT(detected, 0);
}

TEST(LzCodec, RejectsWrongCodecId) {
  const LzCodec balanced(LzPreset::kBalanced);
  const LzCodec fast(LzPreset::kFast);
  const Buffer compressed = balanced.compress(Buffer{1, 2, 3, 4, 5});
  EXPECT_THROW(fast.decompress(compressed), CodecError);
}

TEST(RleCodec, CompressesRunsHard) {
  Rng rng(5);
  const Buffer runs = run_bytes(1 << 16, rng, 128);
  const RleCodec codec;
  const Buffer compressed = codec.compress(runs);
  EXPECT_LT(compression_ratio(runs.size(), compressed.size()), 0.2);
}

TEST(RleCodec, RejectsTrailingGarbage) {
  const RleCodec codec;
  Buffer compressed = codec.compress(Buffer{9, 9, 9, 9, 9, 9});
  compressed.push_back(0x00);  // extra run group beyond declared size
  EXPECT_THROW(codec.decompress(compressed), CodecError);
}

TEST(NullCodec, AddsOnlyHeaderOverhead) {
  Rng rng(6);
  const Buffer data = random_bytes(1000, rng);
  const NullCodec codec;
  const Buffer compressed = codec.compress(data);
  EXPECT_LE(compressed.size(), data.size() + 4);
}

TEST(Codec, CompressRejectsSmallOutputBuffer) {
  const NullCodec codec;
  const Buffer data(100, 1);
  Buffer out(10);
  EXPECT_THROW(codec.compress(data, out), CodecError);
}

TEST(Codec, DecompressRejectsSmallOutputBuffer) {
  const NullCodec codec;
  const Buffer compressed = codec.compress(Buffer(100, 1));
  Buffer out(10);
  EXPECT_THROW(codec.decompress(compressed, out), CodecError);
}

TEST(Codec, CodecForIdRejectsUnknownId) {
  EXPECT_THROW(codec_for_id(0x7f), CodecError);
}

TEST(Codec, RatioHelper) {
  EXPECT_DOUBLE_EQ(compression_ratio(100, 50), 0.5);
  EXPECT_DOUBLE_EQ(compression_ratio(0, 10), 1.0);
}

TEST(Varint, RoundtripsBoundaries) {
  Buffer buf(kMaxVarintBytes);
  for (const std::uint64_t v :
       {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
        0xffffffffull, 0xffffffffffffffffull}) {
    const std::size_t n = write_varint(v, buf, 0);
    EXPECT_EQ(n, varint_size(v));
    std::size_t pos = 0;
    EXPECT_EQ(read_varint(std::span<const std::uint8_t>(buf.data(), n), pos),
              v);
    EXPECT_EQ(pos, n);
  }
}

TEST(Varint, RejectsTruncated) {
  const Buffer truncated{0x80};  // continuation bit set, nothing follows
  std::size_t pos = 0;
  EXPECT_THROW(
      read_varint(std::span<const std::uint8_t>(truncated.data(), 1), pos),
      CodecError);
}

TEST(Varint, RejectsOverlong) {
  Buffer overlong(11, 0x80);
  std::size_t pos = 0;
  EXPECT_THROW(read_varint(overlong, pos), CodecError);
}

}  // namespace
}  // namespace swallow::codec
