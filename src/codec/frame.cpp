#include "codec/frame.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <thread>
#include <vector>

#include "codec/varint.hpp"

namespace swallow::codec {

namespace {

constexpr std::uint8_t kMagic[4] = {'S', 'W', 'F', '1'};

void write_u64le(std::uint64_t v, std::span<std::uint8_t> out,
                 std::size_t pos) {
  for (int i = 0; i < 8; ++i)
    out[pos + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t read_u64le(std::span<const std::uint8_t> in, std::size_t pos) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i)
    v |= static_cast<std::uint64_t>(in[pos + static_cast<std::size_t>(i)])
         << (8 * i);
  return v;
}

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

Buffer frame_compress(const Codec& codec,
                      std::span<const std::uint8_t> payload,
                      std::size_t block_size, unsigned num_threads) {
  if (block_size == 0) throw CodecError("frame: zero block size");
  const std::size_t num_blocks =
      payload.empty() ? 0 : (payload.size() + block_size - 1) / block_size;

  // Compress blocks (possibly concurrently) into fixed worst-case slots of
  // one shared scratch buffer — one allocation for the whole frame instead
  // of a Buffer per block, and the span compress API skips the allocating
  // wrapper's intermediate copy.
  const std::size_t slot = codec.max_compressed_size(block_size);
  Buffer scratch(num_blocks * slot);
  std::vector<std::size_t> sizes(num_blocks);
  auto compress_range = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      const std::size_t off = b * block_size;
      const std::size_t len = std::min(block_size, payload.size() - off);
      sizes[b] = codec.compress(
          payload.subspan(off, len),
          std::span<std::uint8_t>(scratch.data() + b * slot, slot));
    }
  };
  const unsigned threads =
      std::max(1u, std::min<unsigned>(num_threads,
                                      static_cast<unsigned>(num_blocks)));
  if (threads <= 1) {
    compress_range(0, num_blocks);
  } else {
    std::vector<std::jthread> workers;
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) {
      const std::size_t lo = num_blocks * t / threads;
      const std::size_t hi = num_blocks * (t + 1) / threads;
      workers.emplace_back([&, lo, hi] { compress_range(lo, hi); });
    }
  }

  std::size_t total = sizeof(kMagic) + 1 + varint_size(payload.size()) +
                      varint_size(block_size);
  for (std::size_t b = 0; b < num_blocks; ++b)
    total += varint_size(sizes[b]) + 8 + sizes[b];

  Buffer out(total);
  std::size_t pos = 0;
  std::copy(std::begin(kMagic), std::end(kMagic), out.begin());
  pos += sizeof(kMagic);
  out[pos++] = codec.id();
  pos += write_varint(payload.size(), out, pos);
  pos += write_varint(block_size, out, pos);
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const std::size_t off = b * block_size;
    const std::size_t len = std::min(block_size, payload.size() - off);
    pos += write_varint(sizes[b], out, pos);
    write_u64le(checksum64(payload.subspan(off, len)), out, pos);
    pos += 8;
    std::copy_n(scratch.data() + b * slot, sizes[b],
                out.begin() + static_cast<std::ptrdiff_t>(pos));
    pos += sizes[b];
  }
  out.resize(pos);
  return out;
}

std::size_t frame_decompressed_size(std::span<const std::uint8_t> frame) {
  if (!is_frame(frame)) throw CodecError("frame: bad magic");
  std::size_t pos = sizeof(kMagic) + 1;  // magic + codec id
  return static_cast<std::size_t>(read_varint(frame, pos));
}

bool is_frame(std::span<const std::uint8_t> data) {
  return data.size() >= sizeof(kMagic) &&
         std::equal(std::begin(kMagic), std::end(kMagic), data.begin());
}

std::size_t frame_decompress_into(std::span<const std::uint8_t> frame,
                                  std::span<std::uint8_t> out,
                                  unsigned num_threads) {
  if (!is_frame(frame)) throw CodecError("frame: bad magic");
  std::size_t pos = sizeof(kMagic);
  const std::uint8_t codec_id = frame[pos++];
  const auto raw_size = static_cast<std::size_t>(read_varint(frame, pos));
  const auto block_size = static_cast<std::size_t>(read_varint(frame, pos));
  if (block_size == 0) throw CodecError("frame: zero block size in header");
  if (out.size() < raw_size)
    throw CodecError("frame: output buffer too small");

  const Codec& codec = codec_for_id(codec_id);

  const std::size_t num_blocks =
      raw_size == 0 ? 0 : (raw_size + block_size - 1) / block_size;

  // Walk the index first so blocks can be decoded concurrently.
  struct BlockRef {
    std::size_t container_pos;
    std::size_t container_size;
    std::uint64_t checksum;
    std::size_t raw_off;
    std::size_t raw_len;
  };
  std::vector<BlockRef> refs;
  refs.reserve(num_blocks);
  for (std::size_t b = 0; b < num_blocks; ++b) {
    const auto stored = static_cast<std::size_t>(read_varint(frame, pos));
    if (pos + 8 > frame.size()) throw CodecError("frame: truncated checksum");
    const std::uint64_t checksum = read_u64le(frame, pos);
    pos += 8;
    if (pos + stored > frame.size()) throw CodecError("frame: truncated block");
    const std::size_t off = b * block_size;
    refs.push_back({pos, stored, checksum, off,
                    std::min(block_size, raw_size - off)});
    pos += stored;
  }
  if (pos != frame.size()) throw CodecError("frame: trailing garbage");

  auto decode_range = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t b = lo; b < hi; ++b) {
      const BlockRef& ref = refs[b];
      const std::size_t n = codec.decompress(
          frame.subspan(ref.container_pos, ref.container_size),
          std::span<std::uint8_t>(out.data() + ref.raw_off, ref.raw_len));
      if (n != ref.raw_len) throw CodecError("frame: block size mismatch");
      if (checksum64({out.data() + ref.raw_off, ref.raw_len}) != ref.checksum)
        throw CodecError("frame: checksum mismatch in block " +
                         std::to_string(b));
    }
  };
  const unsigned threads =
      std::max(1u, std::min<unsigned>(num_threads,
                                      static_cast<unsigned>(num_blocks)));
  if (threads <= 1) {
    decode_range(0, num_blocks);
  } else {
    // Exceptions must not escape a jthread: capture and rethrow.
    std::vector<std::exception_ptr> errors(threads);
    {
      std::vector<std::jthread> workers;
      workers.reserve(threads);
      for (unsigned t = 0; t < threads; ++t) {
        const std::size_t lo = num_blocks * t / threads;
        const std::size_t hi = num_blocks * (t + 1) / threads;
        workers.emplace_back([&, lo, hi, t] {
          try {
            decode_range(lo, hi);
          } catch (...) {
            errors[t] = std::current_exception();
          }
        });
      }
    }
    for (const auto& error : errors)
      if (error) std::rethrow_exception(error);
  }
  return raw_size;
}

Buffer frame_decompress(std::span<const std::uint8_t> frame,
                        unsigned num_threads) {
  Buffer out(frame_decompressed_size(frame));
  frame_decompress_into(frame, out, num_threads);
  return out;
}

}  // namespace swallow::codec
