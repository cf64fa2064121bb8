// Randomized codec hardening: many seeds x payload shapes roundtrip through
// every codec, and random corruption of valid containers must never crash,
// hang, or read out of bounds — it either throws CodecError or returns
// data (possibly wrong: a flipped literal byte is undetectable without a
// checksum, which the runtime layers on top via FNV verification).
#include <gtest/gtest.h>

#include "codec/codec.hpp"
#include "codec/synth_data.hpp"
#include "reference_lz.hpp"

namespace swallow::codec {
namespace {

using common::Rng;

Buffer random_payload(Rng& rng) {
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 40000));
  switch (rng.uniform_int(0, 4)) {
    case 0: return random_bytes(n, rng);
    case 1: return run_bytes(n, rng, 1 + rng.uniform_int(0, 200));
    case 2: return text_bytes(n, rng, 16 + rng.uniform_int(0, 4000),
                              rng.uniform(1.0, 1.4));
    case 3: return record_bytes(n, rng);
    default: return mixed_bytes(n, rng, rng.uniform(0.0, 1.0));
  }
}

class CodecFuzz : public ::testing::TestWithParam<CodecKind> {};

TEST_P(CodecFuzz, RandomPayloadsRoundtrip) {
  const auto codec = make_codec(GetParam());
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 1);
  for (int round = 0; round < 60; ++round) {
    const Buffer payload = random_payload(rng);
    const Buffer compressed = codec->compress(payload);
    ASSERT_LE(compressed.size(), codec->max_compressed_size(payload.size()));
    ASSERT_EQ(codec->decompress(compressed), payload) << "round " << round;
  }
}

TEST_P(CodecFuzz, SingleByteCorruptionIsContained) {
  const auto codec = make_codec(GetParam());
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 2);
  int threw = 0, survived = 0;
  for (int round = 0; round < 40; ++round) {
    const Buffer payload = random_payload(rng);
    Buffer compressed = codec->compress(payload);
    if (compressed.size() < 2) continue;
    const std::size_t pos = static_cast<std::size_t>(
        rng.uniform_int(1, compressed.size() - 1));  // keep the codec id
    compressed[pos] ^= static_cast<std::uint8_t>(1 + rng.uniform_int(0, 254));
    try {
      const Buffer out = codec->decompress(compressed);
      ++survived;  // undetectable literal flip: same size, wrong bytes ok
      EXPECT_EQ(out.size(), payload.size());
    } catch (const CodecError&) {
      ++threw;
    }
  }
  EXPECT_GT(threw + survived, 0);
}

TEST_P(CodecFuzz, TruncationAlwaysThrows) {
  const auto codec = make_codec(GetParam());
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 3);
  for (int round = 0; round < 40; ++round) {
    Buffer payload = random_payload(rng);
    if (payload.empty()) payload.push_back(1);
    Buffer compressed = codec->compress(payload);
    const std::size_t cut = static_cast<std::size_t>(
        rng.uniform_int(1, compressed.size() - 1));
    compressed.resize(compressed.size() - cut);
    // Either the header is gone or the payload is short: must throw, and
    // must never write past the output buffer.
    EXPECT_THROW(codec->decompress(compressed), CodecError) << round;
  }
}

TEST_P(CodecFuzz, GarbageInputNeverCrashes) {
  // Fixed-size output via the span API: a hostile header demanding
  // petabytes must be rejected, not allocated.
  const auto codec = make_codec(GetParam());
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 13 + 4);
  Buffer out(1 << 20);
  for (int round = 0; round < 60; ++round) {
    Buffer garbage = random_bytes(
        static_cast<std::size_t>(rng.uniform_int(1, 2000)), rng);
    garbage[0] = codec->id();  // pass the id check, fuzz everything else
    try {
      const std::size_t n = codec->decompress(garbage, out);
      EXPECT_LE(n, out.size());
    } catch (const CodecError&) {
      // expected most of the time
    }
  }
}

// The swlz decoder's word copies against the byte loop they replaced
// (reference_lz.hpp), on the corpora of the four tests above, each redrawn
// from the same seed in the same order, and on every 0xff / 0x80 flip of
// one container's bytes. Both decoders must return the same bytes or both
// throw.
class LzDecodeFuzz : public ::testing::TestWithParam<CodecKind> {};

TEST_P(LzDecodeFuzz, AgreesWithTheByteLoopOnTheFuzzCorpora) {
  const auto codec = make_codec(GetParam());
  const auto kind = static_cast<std::uint64_t>(GetParam());
  {
    SCOPED_TRACE("RandomPayloadsRoundtrip");
    Rng rng(kind * 7919 + 1);
    for (int round = 0; round < 60; ++round) {
      const Buffer payload = random_payload(rng);
      const auto out =
          reference::expect_same_lz_decode(*codec, codec->compress(payload));
      ASSERT_TRUE(out.has_value()) << round;
      EXPECT_EQ(*out, payload) << round;
    }
  }
  {
    SCOPED_TRACE("SingleByteCorruptionIsContained");
    Rng rng(kind * 104729 + 2);
    for (int round = 0; round < 40; ++round) {
      const Buffer payload = random_payload(rng);
      Buffer compressed = codec->compress(payload);
      if (compressed.size() < 2) continue;
      const std::size_t pos = static_cast<std::size_t>(
          rng.uniform_int(1, compressed.size() - 1));
      compressed[pos] ^=
          static_cast<std::uint8_t>(1 + rng.uniform_int(0, 254));
      reference::expect_same_lz_decode(*codec, compressed);
    }
  }
  {
    SCOPED_TRACE("TruncationAlwaysThrows");
    Rng rng(kind * 31 + 3);
    for (int round = 0; round < 40; ++round) {
      Buffer payload = random_payload(rng);
      if (payload.empty()) payload.push_back(1);
      Buffer compressed = codec->compress(payload);
      const std::size_t cut = static_cast<std::size_t>(
          rng.uniform_int(1, compressed.size() - 1));
      compressed.resize(compressed.size() - cut);
      EXPECT_FALSE(reference::expect_same_lz_decode(*codec, compressed))
          << round;
    }
  }
  {
    SCOPED_TRACE("GarbageInputNeverCrashes");
    Rng rng(kind * 13 + 4);
    for (int round = 0; round < 60; ++round) {
      Buffer garbage = random_bytes(
          static_cast<std::size_t>(rng.uniform_int(1, 2000)), rng);
      garbage[0] = codec->id();
      reference::expect_same_lz_decode(*codec, garbage, std::size_t{1} << 20);
    }
  }
  {
    SCOPED_TRACE("every 0xff / 0x80 flip");
    Rng rng(kind * 17 + 5);
    const Buffer payload = text_bytes(3000, rng);
    const Buffer compressed = codec->compress(payload);
    for (std::size_t pos = 1; pos < compressed.size(); ++pos) {
      for (const std::uint8_t mask : {0xff, 0x80}) {
        Buffer flipped = compressed;
        flipped[pos] ^= mask;
        reference::expect_same_lz_decode(*codec, flipped, 8192);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SwlzPresets, LzDecodeFuzz,
    ::testing::Values(CodecKind::kLzFast, CodecKind::kLzBalanced,
                      CodecKind::kLzHigh),
    [](const auto& info) {
      std::string s = codec_kind_name(info.param);
      for (auto& c : s)
        if (c == '-') c = '_';
      return s;
    });

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, CodecFuzz,
    ::testing::Values(CodecKind::kNull, CodecKind::kRle, CodecKind::kLzFast,
                      CodecKind::kLzBalanced, CodecKind::kLzHigh,
                      CodecKind::kHuffman, CodecKind::kLzHuff),
    [](const auto& info) {
      std::string s = codec_kind_name(info.param);
      for (auto& c : s)
        if (c == '-') c = '_';
      return s;
    });

}  // namespace
}  // namespace swallow::codec
