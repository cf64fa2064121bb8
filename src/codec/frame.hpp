// Framed container: chunks a payload into fixed-size blocks, compresses
// each independently, and guards every block with an XXH64 checksum
// (seed 0, see checksum64).
//
// This is how production transports actually ship compressed streams
// (LZ4 frame format, Snappy framing): blocks bound memory, allow streaming
// and parallel (de)compression, and the checksums catch the corruption
// class a raw LZ stream cannot detect (flipped literal bytes decode
// "successfully" into wrong data). The runtime's push/pull path and any
// long-lived storage should prefer frames over bare containers.
//
// Layout:
//   magic 'S''W''F''1' | codec id | varint raw_size | varint block_size |
//   per block: varint stored_size | u64le checksum64(raw) | container bytes
#pragma once

#include <cstdint>

#include "codec/codec.hpp"

namespace swallow::codec {

inline constexpr std::size_t kDefaultFrameBlock = 256 * 1024;

/// XXH64 (seed 0) of a byte span: the one integrity checksum of every SWF1
/// block, SWF2 chunk record, journal record and shuffle payload.
std::uint64_t checksum64(std::span<const std::uint8_t> data);

/// Compresses `payload` into a frame using `codec` per block.
/// `num_threads` > 1 compresses blocks concurrently (blocks are
/// independent); the output is byte-identical regardless of thread count.
Buffer frame_compress(const Codec& codec, std::span<const std::uint8_t> payload,
                      std::size_t block_size = kDefaultFrameBlock,
                      unsigned num_threads = 1);

/// Decompresses a frame produced by frame_compress, verifying every block
/// checksum; throws CodecError on any mismatch, truncation, or bad header.
/// Dispatches on the stored codec id (any built-in codec).
Buffer frame_decompress(std::span<const std::uint8_t> frame,
                        unsigned num_threads = 1);

/// Zero-copy variant of frame_decompress: decodes into caller-owned storage
/// (>= the frame's recorded raw size — see frame_decompressed_size) instead
/// of allocating. Returns the payload size.
std::size_t frame_decompress_into(std::span<const std::uint8_t> frame,
                                  std::span<std::uint8_t> out,
                                  unsigned num_threads = 1);

/// Raw size recorded in a frame header (validates the magic).
std::size_t frame_decompressed_size(std::span<const std::uint8_t> frame);

/// True if the buffer starts with the frame magic.
bool is_frame(std::span<const std::uint8_t> data);

}  // namespace swallow::codec
