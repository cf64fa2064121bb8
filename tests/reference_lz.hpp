// The swlz decoder as a plain byte loop, the reference LzCodec::decode is
// checked against (test_codec, test_codec_fuzz). It copies every literal
// and match byte one at a time, with the production decoder's bounds
// checks and messages in the same order, and shares no code with
// src/codec/lz_codec.cpp.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "codec/codec.hpp"
#include "codec/varint.hpp"

namespace swallow::codec::reference {

/// Decodes one swlz payload (the container minus its id and raw size)
/// into exactly `out.size()` bytes.
inline void lz_decode(std::span<const std::uint8_t> in,
                      std::span<std::uint8_t> out) {
  constexpr std::size_t kMinMatch = 4;
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
    for (std::size_t i = 0; i < lit_len; ++i) out[op + i] = in[ip + i];
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
    for (std::size_t i = 0; i < match_len; ++i)
      out[op + i] = out[op - offset + i];
    op += match_len;
  }
}

/// Decodes `container` with `codec` (an swlz preset) and with the byte
/// loop, each into its own zeroed `capacity`-byte buffer, and checks they
/// agree: the same bytes, or a CodecError from both (with the same message
/// when the payload, not the container header, is at fault). Either way
/// `codec` must leave every byte past the header's raw size untouched.
/// Returns the decoded bytes, or nullopt when both threw.
inline std::optional<Buffer> expect_same_lz_decode(
    const Codec& codec, std::span<const std::uint8_t> container,
    std::size_t capacity = std::size_t{1} << 16) {
  Buffer got(capacity), want(capacity);
  std::optional<std::size_t> got_size, want_size, raw;
  std::string got_error, want_error;
  try {
    got_size = codec.decompress(container, got);
  } catch (const CodecError& e) {
    got_error = e.what();
  }
  try {
    if (container.empty()) throw CodecError("empty container");
    std::size_t pos = 1;
    raw = static_cast<std::size_t>(read_varint(container, pos));
    if (*raw > capacity) throw CodecError("output buffer too small");
    lz_decode(container.subspan(pos), std::span(want).first(*raw));
    want_size = raw;
  } catch (const CodecError& e) {
    want_error = e.what();
  }
  if (raw && *raw <= capacity) {
    EXPECT_TRUE(std::all_of(got.begin() + static_cast<std::ptrdiff_t>(*raw),
                            got.end(), [](std::uint8_t b) { return b == 0; }))
        << "decoder wrote past the output's " << *raw << " bytes";
  }
  EXPECT_EQ(got_size.has_value(), want_size.has_value())
      << "decoder: '" << got_error << "', byte loop: '" << want_error << "'";
  if (!got_size || !want_size) {
    if (got_error.starts_with("swlz:")) {
      EXPECT_EQ(got_error, want_error);
    }
    return std::nullopt;
  }
  got.resize(*got_size);
  want.resize(*want_size);
  EXPECT_EQ(got, want);
  return got;
}

}  // namespace swallow::codec::reference
