#include "codec/null_codec.hpp"

#include <algorithm>

namespace swallow::codec {

std::size_t NullCodec::encode(std::span<const std::uint8_t> in,
                              std::span<std::uint8_t> out) const {
  std::copy(in.begin(), in.end(), out.begin());
  return in.size();
}

void NullCodec::decode(std::span<const std::uint8_t> in,
                       std::span<std::uint8_t> out) const {
  if (in.size() < out.size()) throw CodecError("null: truncated payload");
  std::copy_n(in.begin(), out.size(), out.begin());
}

}  // namespace swallow::codec
