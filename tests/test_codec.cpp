// Codec tests: roundtrip correctness across every codec and payload shape
// (parameterized), container self-description, corrupt-input rejection,
// ratio ordering across presets, and varint edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <tuple>
#include <vector>

#include "codec/codec.hpp"
#include "codec/lz_codec.hpp"
#include "codec/null_codec.hpp"
#include "codec/rle_codec.hpp"
#include "codec/synth_data.hpp"
#include "codec/varint.hpp"
#include "reference_lz.hpp"

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

/// Appends one swlz sequence: `lits`, then a `match_len`-byte match at
/// `offset`; match_len 0 makes it the final, literal-only sequence.
void put_sequence(Buffer& s, std::span<const std::uint8_t> lits,
                  std::size_t offset, std::size_t match_len) {
  const auto extend = [&](std::size_t n) {
    if (n < 15) return;
    for (n -= 15; n >= 255; n -= 255) s.push_back(255);
    s.push_back(static_cast<std::uint8_t>(n));
  };
  const std::size_t m = match_len == 0 ? 0 : match_len - 4;
  s.push_back(static_cast<std::uint8_t>(std::min<std::size_t>(lits.size(), 15)
                                            << 4 |
                                        std::min<std::size_t>(m, 15)));
  extend(lits.size());
  s.insert(s.end(), lits.begin(), lits.end());
  if (match_len == 0) return;
  s.push_back(static_cast<std::uint8_t>(offset & 0xff));
  s.push_back(static_cast<std::uint8_t>(offset >> 8));
  extend(m);
}

// The decoder's word copies against the byte loop they replaced, on
// hand-built streams: 24 bytes of set-up, then a sequence with every
// literal run 0-40, offset 1-20 and match length 4-40, then a final run of
// 0-17 literals, so the sequence under test ends anywhere from the
// output's last byte to 17 bytes before it. 16 spare bytes behind the
// output catch a word copy that writes past it. Each stream is decoded
// once more under a header that ends the output right after the literal
// run under test, where the match after it must fail in both decoders.
TEST(LzDecode, WordCopiesMatchTheByteLoopOnCraftedStreams) {
  const LzCodec codec(LzPreset::kBalanced);
  Buffer bytes(64);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<std::uint8_t>(i * 37 + 11);
  const std::span<const std::uint8_t> lits(bytes);
  const auto container = [&](std::size_t raw,
                             std::span<const std::uint8_t> payload) {
    Buffer c(1 + kMaxVarintBytes, codec.id());
    c.resize(1 + write_varint(raw, c, 1));
    c.insert(c.end(), payload.begin(), payload.end());
    return c;
  };
  Buffer payload;
  for (std::size_t offset = 1; offset <= 20; ++offset) {
    for (std::size_t lit = 0; lit <= 40; ++lit) {
      for (std::size_t len = 4; len <= 40; ++len) {
        for (std::size_t tail = 0; tail <= 17; ++tail) {
          payload.clear();
          put_sequence(payload, lits.first(20), 1, 4);
          put_sequence(payload, lits.subspan(20, lit), offset, len);
          put_sequence(payload, lits.first(tail), 0, 0);
          const std::size_t raw = 24 + lit + len + tail;
          const auto out = reference::expect_same_lz_decode(
              codec, container(raw, payload), raw + 16);
          ASSERT_TRUE(out && !HasFailure())
              << "offset " << offset << ", literals " << lit << ", match "
              << len << ", tail " << tail;
          if (tail > 0) continue;
          const auto cut = reference::expect_same_lz_decode(
              codec, container(24 + lit, payload), 24 + lit + 16);
          ASSERT_TRUE(!cut && !HasFailure())
              << "offset " << offset << ", literals " << lit << ", match "
              << len << ", output cut after the literals";
        }
      }
    }
  }
}

// Every payload size from 0 to 64 through all three presets, so the
// encoder's own sequences end within 16 bytes of the output's end too.
TEST(LzDecode, WordCopiesMatchTheByteLoopAtEverySmallSize) {
  Rng rng(11);
  for (const LzPreset preset :
       {LzPreset::kFast, LzPreset::kBalanced, LzPreset::kHigh}) {
    const LzCodec codec(preset);
    for (std::size_t n = 0; n <= 64; ++n) {
      std::vector<Buffer> payloads = {Buffer(n, 0x5a), text_bytes(n, rng),
                                      random_bytes(n, rng)};
      for (const std::size_t period : {2, 3, 8, 9, 13}) {
        Buffer periodic(n);
        for (std::size_t i = 0; i < n; ++i)
          periodic[i] = static_cast<std::uint8_t>(i % period * 29 + 1);
        payloads.push_back(std::move(periodic));
      }
      for (const Buffer& payload : payloads) {
        const auto out = reference::expect_same_lz_decode(
            codec, codec.compress(payload), n + 16);
        ASSERT_TRUE(out.has_value()) << codec.name() << " size " << n;
        EXPECT_EQ(*out, payload) << codec.name() << " size " << n;
      }
    }
  }
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
