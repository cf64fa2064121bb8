// Chunk-parallel frame container (SWF2), the one wire-frame format of the
// runtime data plane. Blocks split into chunks so compression overlaps
// transmission (PAPER.md Eq. 1/2: codec time hides behind wire time).
//
// A payload is split at fixed deterministic boundaries (`chunk_bytes`,
// default 256 KiB). Each chunk compresses independently into a
// self-contained record, and records concatenate in chunk order — so the
// container bytes are a pure function of (payload, codec, chunk_bytes),
// regardless of how many threads raced to produce them. Parallel output is
// byte-identical to serial output by construction; test_codec_chunked and
// bench_codec_micro assert it.
//
// Layout (SWF2):
//   magic 'S''W''F''2' | varint raw_size | varint chunk_bytes |
//   per chunk: u8 codec id | varint stored_size | u64le checksum64(raw) |
//              container bytes
//
// The per-record codec id (redundant with the container's own leading id
// byte, and cross-checked against it on decode) makes every record
// self-describing: the header names no codec, and each record names the
// one that decodes it.
//
// Two access patterns:
//   - chunk_compress / chunk_decompress: one-shot whole-buffer calls, fanned
//     across a ChunkPool when one is supplied.
//   - ChunkEncoder: pull-based streaming producer. next() yields the header,
//     then each record in order; a bounded window of chunks encodes ahead on
//     the pool while the caller transmits the piece it just pulled
//     (compress-while-transmitting).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "codec/codec.hpp"

namespace swallow::obs {
class Sink;
}

namespace swallow::codec {

class ThroughputLedger;

inline constexpr std::size_t kDefaultChunkBytes = 256 * 1024;

/// Bounded worker pool for chunk encode/decode jobs. Jobs are independent
/// (no job ever waits on another job), so a single pool can be shared by
/// every encoder/decoder in a process without deadlock. Its sink, when
/// set, receives a `codec.chunk_encode` or `codec.chunk_decode` span per
/// chunk that an encoder or decoder on this pool codes.
class ChunkPool {
 public:
  /// `threads` == 0 picks min(4, hardware_concurrency).
  explicit ChunkPool(unsigned threads = 0, obs::Sink* sink = nullptr);
  ~ChunkPool();

  ChunkPool(const ChunkPool&) = delete;
  ChunkPool& operator=(const ChunkPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }
  obs::Sink* sink() const { return sink_; }
  void submit(std::function<void()> job);

 private:
  void loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  obs::Sink* sink_ = nullptr;
  std::vector<std::jthread> workers_;
};

/// Streaming chunk producer. Construction kicks off the first `window`
/// chunk encodes on the pool (every chunk at once for the one-shot
/// helpers); each next() waits only for the oldest outstanding chunk and
/// tops the window back up, so chunk N+1 encodes while the caller is
/// transmitting chunk N. Without a pool, chunks encode lazily inline
/// (the serial reference path).
class ChunkEncoder {
 public:
  /// `window` == 0 picks max(2, 2 * pool threads); pass SIZE_MAX (as
  /// chunk_compress does) to fan out every chunk immediately.
  ChunkEncoder(const Codec& codec, std::span<const std::uint8_t> payload,
               std::size_t chunk_bytes = kDefaultChunkBytes,
               ChunkPool* pool = nullptr, ThroughputLedger* ledger = nullptr,
               std::size_t window = 0);
  ~ChunkEncoder();

  ChunkEncoder(const ChunkEncoder&) = delete;
  ChunkEncoder& operator=(const ChunkEncoder&) = delete;

  std::size_t num_chunks() const { return num_chunks_; }
  /// Container bytes still to be pulled? (header + all records)
  bool has_next() const {
    return !header_emitted_ || next_emit_ < num_chunks_;
  }
  /// Header first, then chunk records in index order. Throws CodecError
  /// (rethrown from the worker) if a chunk fails to encode.
  Buffer next();

 private:
  struct Slot {
    Buffer record;
    std::exception_ptr error;
    bool done = false;
  };

  Buffer encode_record(std::size_t index) const;
  void submit_until(std::size_t hi);

  const Codec* codec_;
  std::span<const std::uint8_t> payload_;
  std::size_t chunk_bytes_;
  std::size_t num_chunks_;
  std::size_t window_;
  std::size_t next_emit_ = 0;
  std::size_t next_submit_ = 0;
  bool header_emitted_ = false;
  ChunkPool* pool_;
  ThroughputLedger* ledger_;
  std::vector<Slot> slots_;
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
};

/// One-shot helpers. With a pool, every chunk encodes/decodes concurrently;
/// output bytes are identical either way.
Buffer chunk_compress(const Codec& codec, std::span<const std::uint8_t> payload,
                      std::size_t chunk_bytes = kDefaultChunkBytes,
                      ChunkPool* pool = nullptr,
                      ThroughputLedger* ledger = nullptr);
Buffer chunk_decompress(std::span<const std::uint8_t> frame,
                        ChunkPool* pool = nullptr,
                        ThroughputLedger* ledger = nullptr);
/// Zero-copy variant: decodes into caller-owned storage (>= the frame's
/// recorded raw size). Returns the payload size.
std::size_t chunk_decompress_into(std::span<const std::uint8_t> frame,
                                  std::span<std::uint8_t> out,
                                  ChunkPool* pool = nullptr,
                                  ThroughputLedger* ledger = nullptr);

/// Raw size recorded in a chunk-frame header (validates the magic).
std::size_t chunk_decompressed_size(std::span<const std::uint8_t> frame);

/// True if the buffer starts with the SWF2 magic.
bool is_chunk_frame(std::span<const std::uint8_t> data);

}  // namespace swallow::codec
