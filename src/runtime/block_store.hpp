// Per-worker block storage and the buffer pool whose reclamation statistics
// stand in for the paper's JVM garbage-collection measurements (Table VIII):
// both quantify time spent releasing transfer buffers, and both shrink when
// compression shrinks the live buffers.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "codec/codec.hpp"
#include "common/units.hpp"

namespace swallow::runtime {

using BlockId = std::uint64_t;
using CoflowRef = std::uint64_t;

struct BlockKey {
  CoflowRef coflow;
  BlockId block;
  auto operator<=>(const BlockKey&) const = default;
};

/// Thread-safe block map with blocking reads: pull-side tasks wait until
/// the sender's transfer lands.
class BlockStore {
 public:
  void put(BlockKey key, codec::Buffer data);

  /// Waits at most `timeout` seconds for the block, then removes and
  /// returns it. nullopt means the deadline expired — the caller's cue to
  /// retry, retransmit, or surface a typed error instead of hanging.
  std::optional<codec::Buffer> take_for(BlockKey key, common::Seconds timeout);

  /// Non-blocking residency probe (master fail-over replay: only missing
  /// blocks are re-pushed).
  bool contains(BlockKey key) const;

  /// Removes every block of a coflow (remove() path); returns bytes freed.
  std::size_t drop_coflow(CoflowRef coflow);

  /// Drops every block (worker-kill path); returns bytes freed.
  std::size_t clear();

  std::size_t block_count() const;
  std::size_t resident_bytes() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<BlockKey, codec::Buffer> blocks_;
  std::size_t resident_bytes_ = 0;
};

/// Reclamation statistics of transfer buffers (the GC-time analog).
/// release() scrubs the buffer (byte-proportional work, like a copying
/// collector touching the dead object) and times it.
class BufferPool {
 public:
  codec::Buffer allocate(std::size_t bytes);
  void release(codec::Buffer buffer);

  struct Stats {
    std::size_t allocations = 0;
    std::size_t releases = 0;
    std::size_t bytes_allocated = 0;
    std::size_t bytes_released = 0;
    common::Seconds reclaim_time = 0;  ///< total time spent in release()
  };
  Stats stats() const;

 private:
  mutable std::mutex mutex_;
  Stats stats_;
};

}  // namespace swallow::runtime
