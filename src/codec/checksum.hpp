// The one integrity checksum of the codec and persistence layers.
#pragma once

#include <cstdint>
#include <span>

namespace swallow::codec {

/// XXH64 (seed 0) of a byte span: the one integrity checksum of every SWF2
/// chunk record, journal record, snapshot file and shuffle payload.
std::uint64_t checksum64(std::span<const std::uint8_t> data);

}  // namespace swallow::codec
