// Framed-container tests: roundtrips across codecs/block sizes/thread
// counts, determinism of parallel compression, checksum catching the
// corruption class bare LZ decoding cannot, and header validation.
#include <gtest/gtest.h>

#include <string_view>
#include <tuple>

#include "codec/frame.hpp"
#include "codec/synth_data.hpp"

namespace swallow::codec {
namespace {

using common::Rng;

class FrameRoundtrip
    : public ::testing::TestWithParam<std::tuple<CodecKind, int, unsigned>> {};

TEST_P(FrameRoundtrip, CompressDecompressIsIdentity) {
  const auto [kind, size, threads] = GetParam();
  Rng rng(static_cast<std::uint64_t>(size) + threads);
  const Buffer payload =
      mixed_bytes(static_cast<std::size_t>(size), rng, 0.2);
  const auto codec = make_codec(kind);
  const Buffer frame =
      frame_compress(*codec, payload, 16 * 1024, threads);
  EXPECT_TRUE(is_frame(frame));
  EXPECT_EQ(frame_decompressed_size(frame), payload.size());
  EXPECT_EQ(frame_decompress(frame, threads), payload);
}

std::string frame_param_name(
    const ::testing::TestParamInfo<std::tuple<CodecKind, int, unsigned>>&
        info) {
  std::string s = codec_kind_name(std::get<0>(info.param));
  for (auto& c : s)
    if (c == '-') c = '_';
  return s + "_" + std::to_string(std::get<1>(info.param)) + "b_" +
         std::to_string(std::get<2>(info.param)) + "t";
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FrameRoundtrip,
    ::testing::Combine(::testing::Values(CodecKind::kNull,
                                         CodecKind::kLzBalanced,
                                         CodecKind::kLzFast),
                       ::testing::Values(0, 1, 16384, 100000),
                       ::testing::Values(1u, 4u)),
    frame_param_name);

TEST(Frame, ParallelOutputIsByteIdentical) {
  Rng rng(5);
  const Buffer payload = text_bytes(300000, rng);
  const auto codec = make_codec(CodecKind::kLzBalanced);
  const Buffer serial = frame_compress(*codec, payload, 32 * 1024, 1);
  const Buffer parallel = frame_compress(*codec, payload, 32 * 1024, 8);
  EXPECT_EQ(serial, parallel);
}

TEST(Frame, ChecksumCatchesSilentLiteralFlips) {
  // A flipped literal byte decodes "successfully" through a bare LZ
  // container; the frame checksum must reject it.
  Rng rng(6);
  const Buffer payload = text_bytes(60000, rng);
  const auto codec = make_codec(CodecKind::kLzBalanced);
  Buffer frame = frame_compress(*codec, payload, 16 * 1024);
  int rejected = 0, clean = 0;
  Rng fuzz(7);
  for (int round = 0; round < 60; ++round) {
    Buffer corrupt = frame;
    const std::size_t pos = static_cast<std::size_t>(
        fuzz.uniform_int(5, corrupt.size() - 1));
    corrupt[pos] ^= static_cast<std::uint8_t>(1 + fuzz.uniform_int(0, 254));
    try {
      const Buffer out = frame_decompress(corrupt);
      // Only acceptable outcome: the decode is bit-perfect anyway (the
      // flip hit a redundant byte — cannot happen with this layout).
      EXPECT_EQ(out, payload);
      ++clean;
    } catch (const CodecError&) {
      ++rejected;
    }
  }
  EXPECT_EQ(clean, 0);
  EXPECT_EQ(rejected, 60);
}

TEST(Frame, RejectsBadHeaders) {
  Rng rng(8);
  const Buffer payload = text_bytes(1000, rng);
  const auto codec = make_codec(CodecKind::kLzBalanced);
  Buffer frame = frame_compress(*codec, payload);

  Buffer bad_magic = frame;
  bad_magic[0] = 'X';
  EXPECT_THROW(frame_decompress(bad_magic), CodecError);
  EXPECT_FALSE(is_frame(bad_magic));
  EXPECT_THROW(frame_decompressed_size(bad_magic), CodecError);

  Buffer bad_codec = frame;
  bad_codec[4] = 0x7f;
  EXPECT_THROW(frame_decompress(bad_codec), CodecError);

  Buffer truncated = frame;
  truncated.resize(truncated.size() - 3);
  EXPECT_THROW(frame_decompress(truncated), CodecError);

  Buffer trailing = frame;
  trailing.push_back(0);
  EXPECT_THROW(frame_decompress(trailing), CodecError);

  EXPECT_THROW(frame_compress(*codec, payload, 0), CodecError);
}

TEST(Frame, EmptyPayload) {
  const auto codec = make_codec(CodecKind::kLzBalanced);
  const Buffer frame = frame_compress(*codec, {});
  EXPECT_EQ(frame_decompressed_size(frame), 0u);
  EXPECT_TRUE(frame_decompress(frame).empty());
}

std::uint64_t checksum_of(std::string_view s) {
  return checksum64(
      {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

TEST(Frame, ChecksumMatchesPublishedXxh64Vectors) {
  // XXH64 with seed 0, as published by the reference implementation.
  EXPECT_EQ(checksum_of(""), 0xef46db3751d8e999ULL);
  EXPECT_EQ(checksum_of("a"), 0xd24ec4f1a98c6e5bULL);
  EXPECT_EQ(checksum_of("abc"), 0x44bc2cf5ad770999ULL);
  EXPECT_EQ(checksum_of("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ULL);
}

TEST(Frame, ChecksumSeesEverySingleBitFlip) {
  // Lengths 0-96 walk the 32-byte stripe loop and every tail branch (8-,
  // 4- and 1-byte steps); each single-bit flip must change the checksum.
  Rng rng(10);
  const Buffer bytes = mixed_bytes(96, rng, 0.5);
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    Buffer data(bytes.begin(),
                bytes.begin() + static_cast<std::ptrdiff_t>(len));
    const std::uint64_t clean = checksum64(data);
    for (std::size_t bit = 0; bit < 8 * len; ++bit) {
      data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      EXPECT_NE(checksum64(data), clean) << "len " << len << " bit " << bit;
      data[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    }
  }
}

TEST(Frame, BlockSizeBoundsCompressionMemory) {
  // Many small blocks vs one big block: both roundtrip; the framed size
  // overhead stays proportional to the block count.
  Rng rng(9);
  const Buffer payload = run_bytes(200000, rng);
  const auto codec = make_codec(CodecKind::kLzBalanced);
  const Buffer small_blocks = frame_compress(*codec, payload, 4 * 1024);
  const Buffer big_blocks = frame_compress(*codec, payload, 128 * 1024);
  EXPECT_EQ(frame_decompress(small_blocks), payload);
  EXPECT_EQ(frame_decompress(big_blocks), payload);
  EXPECT_GT(small_blocks.size(), big_blocks.size());  // per-block overhead
}

}  // namespace
}  // namespace swallow::codec
