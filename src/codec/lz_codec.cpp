#include "codec/lz_codec.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

namespace swallow::codec {

namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxOffset = 65535;
// The last bytes stay literal so 4-byte hash reads and match extension never
// run past the input.
constexpr std::size_t kTailGuard = 8;

std::uint32_t read32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

std::uint32_t hash32(std::uint32_t v, int bits) {
  return (v * 2654435761u) >> (32 - bits);
}

/// Emits one sequence; returns new output position.
std::size_t emit_sequence(std::span<std::uint8_t> out, std::size_t op,
                          const std::uint8_t* literals, std::size_t lit_len,
                          std::size_t match_len, std::size_t offset) {
  const std::size_t lit_nib = std::min<std::size_t>(lit_len, 15);
  std::size_t token_pos = op++;
  if (lit_len >= 15) {
    std::size_t rest = lit_len - 15;
    while (rest >= 255) {
      out[op++] = 255;
      rest -= 255;
    }
    out[op++] = static_cast<std::uint8_t>(rest);
  }
  std::copy_n(literals, lit_len,
              out.begin() + static_cast<std::ptrdiff_t>(op));
  op += lit_len;

  if (match_len == 0) {  // final literal-only sequence
    out[token_pos] = static_cast<std::uint8_t>(lit_nib << 4);
    return op;
  }

  const std::size_t m = match_len - kMinMatch;
  const std::size_t match_nib = std::min<std::size_t>(m, 15);
  out[token_pos] =
      static_cast<std::uint8_t>((lit_nib << 4) | match_nib);
  out[op++] = static_cast<std::uint8_t>(offset & 0xff);
  out[op++] = static_cast<std::uint8_t>(offset >> 8);
  if (m >= 15) {
    std::size_t rest = m - 15;
    while (rest >= 255) {
      out[op++] = 255;
      rest -= 255;
    }
    out[op++] = static_cast<std::uint8_t>(rest);
  }
  return op;
}

// Word-at-a-time match extension: compare 8 bytes per step and locate the
// first differing byte with a count-zero-bits on the XOR. Same result as the
// byte loop (the tail guard keeps reads in-bounds only up to `limit`, so the
// word path stops 8 bytes early and the byte loop finishes).
std::size_t match_length(const std::uint8_t* a, const std::uint8_t* b,
                         const std::uint8_t* limit) {
  const std::uint8_t* start = b;
  while (b + 8 <= limit) {
    std::uint64_t x, y;
    std::memcpy(&x, a, 8);
    std::memcpy(&y, b, 8);
    const std::uint64_t diff = x ^ y;
    if (diff != 0) {
      const int bits = std::endian::native == std::endian::little
                           ? std::countr_zero(diff)
                           : std::countl_zero(diff);
      return static_cast<std::size_t>(b - start) +
             static_cast<std::size_t>(bits >> 3);
    }
    a += 8;
    b += 8;
  }
  while (b < limit && *a == *b) {
    ++a;
    ++b;
  }
  return static_cast<std::size_t>(b - start);
}

}  // namespace

LzCodec::LzCodec(LzPreset preset) : preset_(preset) {}

std::string LzCodec::name() const {
  switch (preset_) {
    case LzPreset::kFast: return "swlz-fast";
    case LzPreset::kBalanced: return "swlz-balanced";
    case LzPreset::kHigh: return "swlz-high";
  }
  return "swlz";
}

std::uint8_t LzCodec::id() const {
  switch (preset_) {
    case LzPreset::kFast: return 2;
    case LzPreset::kBalanced: return 3;
    case LzPreset::kHigh: return 4;
  }
  return 2;
}

std::size_t LzCodec::max_payload_size(std::size_t raw) const {
  return raw + raw / 255 + 16;
}

std::size_t LzCodec::encode(std::span<const std::uint8_t> in,
                            std::span<std::uint8_t> out) const {
  if (in.size() <= kTailGuard + kMinMatch)
    return emit_sequence(out, 0, in.data(), in.size(), 0, 0);
  switch (preset_) {
    case LzPreset::kFast: return encode_hash(in, out, 13, /*accelerate=*/true);
    case LzPreset::kBalanced:
      return encode_hash(in, out, 16, /*accelerate=*/false);
    case LzPreset::kHigh: return encode_chain(in, out);
  }
  throw CodecError("swlz: unknown preset");
}

std::size_t LzCodec::encode_hash(std::span<const std::uint8_t> in,
                                 std::span<std::uint8_t> out, int hash_bits,
                                 bool accelerate) const {
  const std::uint8_t* base = in.data();
  const std::size_t n = in.size();
  const std::size_t match_limit = n - kTailGuard;
  // Per-thread scratch: assign() re-zeroes without reallocating when block
  // after block hits the same preset (the chunk pool's workers each keep
  // their own copy).
  thread_local std::vector<std::uint32_t> table;
  table.assign(std::size_t{1} << hash_bits, 0);

  std::size_t op = 0;
  std::size_t anchor = 0;  // start of the pending literal run
  std::size_t ip = 0;
  std::uint32_t misses = 0;

  while (ip < match_limit) {
    const std::uint32_t h = hash32(read32(base + ip), hash_bits);
    const std::uint32_t cand = table[h];
    table[h] = static_cast<std::uint32_t>(ip + 1);

    const bool usable =
        cand != 0 && (ip + 1 - cand) <= kMaxOffset &&
        read32(base + cand - 1) == read32(base + ip);
    if (!usable) {
      // Skip acceleration: in incompressible regions stride grows so the
      // scan stays O(n) with a small constant (LZ4's trick).
      ip += accelerate ? 1 + (misses++ >> 6) : 1;
      continue;
    }
    misses = 0;
    const std::size_t match_pos = cand - 1;
    const std::size_t len =
        match_length(base + match_pos, base + ip, base + match_limit);
    if (len < kMinMatch) {
      ++ip;
      continue;
    }
    op = emit_sequence(out, op, base + anchor, ip - anchor, len,
                       ip - match_pos);
    ip += len;
    anchor = ip;
    // Seed the table inside the match so back-to-back matches chain well.
    if (ip < match_limit)
      table[hash32(read32(base + ip - 2), hash_bits)] =
          static_cast<std::uint32_t>(ip - 1);
  }
  return emit_sequence(out, op, base + anchor, n - anchor, 0, 0);
}

std::size_t LzCodec::encode_chain(std::span<const std::uint8_t> in,
                                  std::span<std::uint8_t> out) const {
  constexpr int kHashBits = 16;
  constexpr std::size_t kChainDepth = 64;
  const std::uint8_t* base = in.data();
  const std::size_t n = in.size();
  const std::size_t match_limit = n - kTailGuard;

  thread_local std::vector<std::uint32_t> head;
  thread_local std::vector<std::uint32_t> prev;
  head.assign(std::size_t{1} << kHashBits, 0);
  prev.assign(n, 0);  // prev[pos] = earlier pos + 1

  auto insert = [&](std::size_t pos) {
    const std::uint32_t h = hash32(read32(base + pos), kHashBits);
    prev[pos] = head[h];
    head[h] = static_cast<std::uint32_t>(pos + 1);
  };

  std::size_t op = 0;
  std::size_t anchor = 0;
  std::size_t ip = 0;

  while (ip < match_limit) {
    const std::uint32_t h = hash32(read32(base + ip), kHashBits);
    // Hoisted window bound: one subtraction here replaces a subtract+compare
    // against ip at every chain hop.
    const std::size_t window_lo = ip > kMaxOffset ? ip - kMaxOffset : 0;
    std::size_t best_len = 0, best_pos = 0;
    std::uint32_t cand = head[h];
    for (std::size_t depth = 0; cand != 0 && depth < kChainDepth; ++depth) {
      const std::size_t pos = cand - 1;
      if (pos < window_lo) break;  // chain is ordered by recency
      if (base[pos + best_len] == base[ip + best_len]) {
        const std::size_t len =
            match_length(base + pos, base + ip, base + match_limit);
        if (len > best_len) {
          best_len = len;
          best_pos = pos;
        }
      }
      cand = prev[pos];
    }
    insert(ip);
    if (best_len < kMinMatch) {
      ++ip;
      continue;
    }
    op = emit_sequence(out, op, base + anchor, ip - anchor, best_len,
                       ip - best_pos);
    // Index every position inside the match (bounded work, better ratio).
    const std::size_t end = std::min(ip + best_len, match_limit);
    for (std::size_t pos = ip + 1; pos < end; ++pos) insert(pos);
    ip += best_len;
    anchor = ip;
  }
  return emit_sequence(out, op, base + anchor, n - anchor, 0, 0);
}

void LzCodec::decode(std::span<const std::uint8_t> in,
                     std::span<std::uint8_t> out) const {
  std::size_t ip = 0, op = 0;
  const std::size_t in_size = in.size();
  const std::size_t out_size = out.size();

  auto read_extended = [&](std::size_t nib) {
    std::size_t len = nib;
    if (nib == 15) {
      std::uint8_t b;
      do {
        if (ip >= in_size) throw CodecError("swlz: truncated length");
        b = in[ip++];
        len += b;
      } while (b == 255);
    }
    return len;
  };

  while (true) {
    if (ip >= in_size) throw CodecError("swlz: missing token");
    const std::uint8_t token = in[ip++];
    const std::size_t lit_len = read_extended(token >> 4);
    if (ip + lit_len > in_size) throw CodecError("swlz: truncated literals");
    if (op + lit_len > out_size)
      throw CodecError("swlz: literals overflow output");
    // A short run moves as one 16-byte word when both buffers hold 16 bytes
    // from here. The bytes it writes past the run are rewritten by the
    // sequences after it before anything reads them: the output fills in
    // order and matches only read behind `op`.
    if (lit_len <= 16 && ip + 16 <= in_size && op + 16 <= out_size)
      std::memcpy(out.data() + op, in.data() + ip, 16);
    else
      std::copy_n(in.begin() + static_cast<std::ptrdiff_t>(ip), lit_len,
                  out.begin() + static_cast<std::ptrdiff_t>(op));
    ip += lit_len;
    op += lit_len;

    if (ip == in_size) {
      if (op != out_size) throw CodecError("swlz: output size mismatch");
      return;  // final literal-only sequence
    }

    if (ip + 2 > in_size) throw CodecError("swlz: truncated offset");
    const std::size_t offset =
        static_cast<std::size_t>(in[ip]) |
        (static_cast<std::size_t>(in[ip + 1]) << 8);
    ip += 2;
    if (offset == 0 || offset > op) throw CodecError("swlz: bad match offset");
    const std::size_t match_len = read_extended(token & 0x0f) + kMinMatch;
    if (op + match_len > out_size)
      throw CodecError("swlz: match overflows output");
    const std::uint8_t* src = out.data() + (op - offset);
    std::uint8_t* dst = out.data() + op;
    if (offset >= 8 && out_size - op - match_len >= 8) {
      // 8-byte steps: each step reads 8 bytes at least 8 behind the ones it
      // writes, all final. The last step may write up to 7 bytes past the
      // match, inside the output and rewritten later, as for literals.
      for (std::size_t i = 0; i < match_len; i += 8)
        std::memcpy(dst + i, src + i, 8);
    } else {
      // Byte-wise copy: overlapping matches (offset < 8) replicate runs.
      for (std::size_t i = 0; i < match_len; ++i) dst[i] = src[i];
    }
    op += match_len;
  }
}

}  // namespace swallow::codec
