#include "codec/checksum.hpp"

#include <bit>
#include <cstring>

namespace swallow::codec {

namespace {

// Unaligned little-endian word loads for the checksum's stripes.
std::uint64_t load_le64(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big)
    v = __builtin_bswap64(v);
  return v;
}

std::uint32_t load_le32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof v);
  if constexpr (std::endian::native == std::endian::big)
    v = __builtin_bswap32(v);
  return v;
}

}  // namespace

// XXH64 with seed 0: four independent multiply lanes over 32-byte stripes,
// so the CPU overlaps the multiplies instead of waiting on each one.
std::uint64_t checksum64(std::span<const std::uint8_t> data) {
  constexpr std::uint64_t kP1 = 0x9E3779B185EBCA87ULL;
  constexpr std::uint64_t kP2 = 0xC2B2AE3D27D4EB4FULL;
  constexpr std::uint64_t kP3 = 0x165667B19E3779F9ULL;
  constexpr std::uint64_t kP4 = 0x85EBCA77C2B2AE63ULL;
  constexpr std::uint64_t kP5 = 0x27D4EB2F165667C5ULL;
  const auto round = [](std::uint64_t acc, std::uint64_t lane) {
    return std::rotl(acc + lane * kP2, 31) * kP1;
  };
  const std::uint8_t* p = data.data();
  const std::uint8_t* const end = p + data.size();
  std::uint64_t h;
  if (data.size() >= 32) {
    std::uint64_t v[4] = {kP1 + kP2, kP2, 0, 0 - kP1};
    for (; end - p >= 32; p += 32)
      for (int i = 0; i < 4; ++i)
        v[i] = round(v[i], load_le64(p + 8 * i));
    h = std::rotl(v[0], 1) + std::rotl(v[1], 7) + std::rotl(v[2], 12) +
        std::rotl(v[3], 18);
    for (const std::uint64_t lane : v) h = (h ^ round(0, lane)) * kP1 + kP4;
  } else {
    h = kP5;
  }
  h += data.size();
  for (; end - p >= 8; p += 8)
    h = std::rotl(h ^ round(0, load_le64(p)), 27) * kP1 + kP4;
  if (end - p >= 4) {
    h = std::rotl(h ^ std::uint64_t{load_le32(p)} * kP1, 23) * kP2 + kP3;
    p += 4;
  }
  for (; p < end; ++p) h = std::rotl(h ^ *p * kP5, 11) * kP1;
  h = (h ^ (h >> 33)) * kP2;
  h = (h ^ (h >> 29)) * kP3;
  return h ^ (h >> 32);
}

}  // namespace swallow::codec
