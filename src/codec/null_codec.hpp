// Pass-through codec: stores bytes verbatim. Baseline for benches and the
// runtime's "compression off" path.
#pragma once

#include "codec/codec.hpp"

namespace swallow::codec {

class NullCodec final : public Codec {
 public:
  std::string name() const override { return "null"; }
  std::uint8_t id() const override { return 0; }

 protected:
  std::size_t encode(std::span<const std::uint8_t> in,
                     std::span<std::uint8_t> out) const override;
  void decode(std::span<const std::uint8_t> in,
              std::span<std::uint8_t> out) const override;
  std::size_t max_payload_size(std::size_t raw) const override { return raw; }
};

}  // namespace swallow::codec
