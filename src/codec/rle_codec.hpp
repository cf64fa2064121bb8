// Byte-level run-length encoder. Effective on the zero-padded regions of
// serialized shuffle blocks; also a simple second reference codec for tests.
#pragma once

#include "codec/codec.hpp"

namespace swallow::codec {

/// Format: a stream of (control, ...) groups.
///  control < 0x80: a run  -> control+1 copies of the next byte (1..128)
///  control >= 0x80: literals -> (control-0x80)+1 raw bytes follow (1..128)
class RleCodec final : public Codec {
 public:
  std::string name() const override { return "rle"; }
  std::uint8_t id() const override { return 1; }

 protected:
  std::size_t encode(std::span<const std::uint8_t> in,
                     std::span<std::uint8_t> out) const override;
  void decode(std::span<const std::uint8_t> in,
              std::span<std::uint8_t> out) const override;
  std::size_t max_payload_size(std::size_t raw) const override;
};

}  // namespace swallow::codec
