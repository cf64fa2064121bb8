#include "codec/rle_codec.hpp"

#include <algorithm>

namespace swallow::codec {

namespace {
constexpr std::size_t kMaxGroup = 128;
// Runs shorter than this are cheaper to fold into a literal group.
constexpr std::size_t kMinRun = 3;
}  // namespace

std::size_t RleCodec::max_payload_size(std::size_t raw) const {
  // Worst case: all literals, one control byte per 128 bytes, plus slack.
  return raw + raw / kMaxGroup + 2;
}

std::size_t RleCodec::encode(std::span<const std::uint8_t> in,
                             std::span<std::uint8_t> out) const {
  std::size_t ip = 0, op = 0;
  std::size_t literal_start = 0;

  auto flush_literals = [&](std::size_t end) {
    std::size_t start = literal_start;
    while (start < end) {
      const std::size_t n = std::min(kMaxGroup, end - start);
      out[op++] = static_cast<std::uint8_t>(0x80 + n - 1);
      std::copy_n(in.begin() + static_cast<std::ptrdiff_t>(start), n,
                  out.begin() + static_cast<std::ptrdiff_t>(op));
      op += n;
      start += n;
    }
  };

  while (ip < in.size()) {
    std::size_t run = 1;
    while (ip + run < in.size() && in[ip + run] == in[ip] && run < kMaxGroup)
      ++run;
    if (run >= kMinRun) {
      flush_literals(ip);
      out[op++] = static_cast<std::uint8_t>(run - 1);
      out[op++] = in[ip];
      ip += run;
      literal_start = ip;
    } else {
      ip += run;
    }
  }
  flush_literals(in.size());
  return op;
}

void RleCodec::decode(std::span<const std::uint8_t> in,
                      std::span<std::uint8_t> out) const {
  std::size_t ip = 0, op = 0;
  while (op < out.size()) {
    if (ip >= in.size()) throw CodecError("rle: truncated payload");
    const std::uint8_t control = in[ip++];
    if (control < 0x80) {
      const std::size_t n = control + 1u;
      if (ip >= in.size()) throw CodecError("rle: truncated run");
      if (op + n > out.size()) throw CodecError("rle: run overflows output");
      std::fill_n(out.begin() + static_cast<std::ptrdiff_t>(op), n, in[ip++]);
      op += n;
    } else {
      const std::size_t n = static_cast<std::size_t>(control - 0x80) + 1u;
      if (ip + n > in.size()) throw CodecError("rle: truncated literals");
      if (op + n > out.size())
        throw CodecError("rle: literals overflow output");
      std::copy_n(in.begin() + static_cast<std::ptrdiff_t>(ip), n,
                  out.begin() + static_cast<std::ptrdiff_t>(op));
      ip += n;
      op += n;
    }
  }
  if (ip != in.size()) throw CodecError("rle: trailing garbage in payload");
}

}  // namespace swallow::codec
