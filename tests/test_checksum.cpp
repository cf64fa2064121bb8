// checksum64 tests: the published XXH64 vectors, and a single-bit-flip
// sweep over every length that reaches a distinct branch of the hash.
#include <gtest/gtest.h>

#include <string_view>

#include "codec/checksum.hpp"
#include "codec/synth_data.hpp"

namespace swallow::codec {
namespace {

using common::Rng;

std::uint64_t checksum_of(std::string_view s) {
  return checksum64(
      {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
}

TEST(Checksum, MatchesPublishedXxh64Vectors) {
  // XXH64 with seed 0, as published by the reference implementation.
  EXPECT_EQ(checksum_of(""), 0xef46db3751d8e999ULL);
  EXPECT_EQ(checksum_of("a"), 0xd24ec4f1a98c6e5bULL);
  EXPECT_EQ(checksum_of("abc"), 0x44bc2cf5ad770999ULL);
  EXPECT_EQ(checksum_of("Nobody inspects the spammish repetition"),
            0xfbcea83c8a378bf1ULL);
}

TEST(Checksum, SeesEverySingleBitFlip) {
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

}  // namespace
}  // namespace swallow::codec
