// Byte-exact state serialization primitives for crash recovery.
//
// StateWriter/StateReader move POD values through a flat little-endian
// byte stream. Doubles travel as their IEEE-754 bit patterns (bit_cast to
// u64), so every simulated-time instant, byte pool and rate restores to
// the exact value it was saved from — the foundation of the kill-anywhere
// byte-identity contract (DESIGN.md section 13). The writer stores through
// a cursor into a buffer that only grows, and clear() rewinds it, so a
// writer reused across checkpoints stops allocating once it has held the
// largest state. The reader is fully bounds-checked: any truncated,
// oversized or type-skewed input surfaces as a typed RecoveryError
// carrying the byte offset, never as UB (the loader fuzz tests in
// test_recovery run this under ASan/UBSan).
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace swallow::recovery {

/// Any failure of the recovery machinery: truncated or corrupted snapshot
/// or journal bytes, version skew, config/trace mismatch between the
/// snapshot and the restoring run, or a journal record that contradicts
/// the deterministically replayed event stream.
class RecoveryError : public std::runtime_error {
 public:
  /// `offset` is the byte position in the offending stream when the error
  /// is about malformed bytes; npos (the default) when it is semantic.
  static constexpr std::uint64_t npos = ~std::uint64_t{0};
  explicit RecoveryError(const std::string& what,
                         std::uint64_t offset = npos)
      : std::runtime_error(offset == npos
                               ? what
                               : what + " (at byte offset " +
                                     std::to_string(offset) + ")"),
        offset_(offset) {}

  std::uint64_t offset() const { return offset_; }

 private:
  std::uint64_t offset_;
};

/// Stores `v` little-endian at `at`. On a little-endian host this is one
/// memcpy, which compilers turn into a single store; byte-at-a-time stores
/// through a `uint8_t*` may alias anything, so each forces reloads.
template <class T>
void store_le(std::uint8_t* at, T v) {
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(at, &v, sizeof v);
  } else {
    for (std::size_t i = 0; i < sizeof v; ++i)
      at[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

/// Appends little-endian primitives to a growing byte buffer.
class StateWriter {
 public:
  void u8(std::uint8_t v) { *claim(1) = v; }
  void u32(std::uint32_t v) { store_le(claim(4), v); }
  void u64(std::uint64_t v) { store_le(claim(8), v); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }
  void bytes(std::span<const std::uint8_t> data) {
    if (!data.empty())
      std::memcpy(claim(data.size()), data.data(), data.size());
  }

  /// Rewinds to empty, keeping the buffer for the next round of writes.
  void clear() { size_ = 0; }

  std::span<const std::uint8_t> buffer() const { return {buf_.data(), size_}; }
  std::size_t size() const { return size_; }

 private:
  /// Advances the cursor by `n` bytes and returns where they go.
  std::uint8_t* claim(std::size_t n) {
    if (buf_.size() - size_ < n)
      buf_.resize(std::max({std::size_t{256}, 2 * buf_.size(), size_ + n}));
    std::uint8_t* at = buf_.data() + size_;
    size_ += n;
    return at;
  }

  std::vector<std::uint8_t> buf_;  // capacity; bytes past size_ are stale
  std::size_t size_ = 0;
};

/// Bounds-checked reader over a byte span; throws RecoveryError (with the
/// current offset) instead of reading past the end.
class StateReader {
 public:
  explicit StateReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t u8() {
    need(1, "u8");
    return data_[pos_++];
  }
  std::uint32_t u32() {
    need(4, "u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
      v |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8, "u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
      v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }
  std::string str() {
    const std::uint32_t n = u32();
    need(n, "string payload");
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return s;
  }

  /// Length-prefix guard: a count about to drive a reserve/resize must be
  /// storable in the remaining bytes (at >= 1 byte per element), so a
  /// corrupted length can never become a reserve bomb.
  std::uint64_t count(const char* what) {
    const std::uint64_t n = u64();
    if (n > remaining())
      throw RecoveryError(std::string("recovery: implausible ") + what +
                              " count " + std::to_string(n),
                          pos_);
    return n;
  }

  std::size_t offset() const { return pos_; }
  std::size_t remaining() const { return data_.size() - pos_; }
  bool at_end() const { return pos_ == data_.size(); }

 private:
  void need(std::size_t n, const char* what) {
    if (data_.size() - pos_ < n)
      throw RecoveryError(std::string("recovery: truncated stream reading ") +
                              what,
                          pos_);
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace swallow::recovery
