// Byte-exact state serialization for crash recovery.
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
//
// Both classes speak one two-way field vocabulary: each call handles one
// field, which StateWriter writes and StateReader reads back and checks.
// A persisted object states its layout once, as a field list
//
//   template <class Self, class IO> static void fields(Self& s, IO& io);
//
// that save_state runs with (const T, StateWriter) and restore_state with
// (T, StateReader). The list never asks which way it runs; bounds and
// expected values it passes are evaluated both ways and bind only on read.
//
//   u8 u32 u64 f64 boolean      a scalar of that width (integers of any
//                               type are cast to and from the width)
//   tag("ABCD")                 a section tag; a misparse fails on it
//   expect / expect_flag /      a count, flag or name the reader must
//     expect_name               find equal to the restoring run's
//   index(v, n)                 an index that must be below n
//   enum_code(v, max)           a u8 enum code that must be at most max
//   fraction(v)                 a double that must lie in [0, 1]
//   vec(v, fn)                  a u64 size, then fn on every element
//   map(m, fn)                  a u64 size, then fn(key, value) per entry
//                               in key order; keys must ascend on read
//   state(obj, bounds...)       a nested object through its own
//                               save_state / restore_state
//   end()                       no bytes may follow
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
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

/// Appends little-endian fields to a growing byte buffer.
class StateWriter {
 public:
  template <std::integral T>
  void u8(T v) {
    *claim(1) = static_cast<std::uint8_t>(v);
  }
  template <std::integral T>
  void u32(T v) {
    store_le(claim(4), static_cast<std::uint32_t>(v));
  }
  template <std::integral T>
  void u64(T v) {
    store_le(claim(8), static_cast<std::uint64_t>(v));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(const std::string& s) {
    u32(s.size());
    bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }
  void bytes(std::span<const std::uint8_t> data) {
    if (!data.empty())
      std::memcpy(claim(data.size()), data.data(), data.size());
  }

  // ---- Two-way fields (see the file comment). ----
  void tag(const char (&name)[5]) {
    bytes({reinterpret_cast<const std::uint8_t*>(name), 4});
  }
  void expect(std::uint64_t v, const char*) { u64(v); }
  void expect_flag(bool v, const char*) { boolean(v); }
  void expect_name(const std::string& v, const char*) { str(v); }
  template <std::integral T>
  void index(T v, std::uint64_t, const char*) {
    u64(v);
  }
  template <class E>
  void enum_code(E v, E, const char*) {
    u8(static_cast<std::uint8_t>(v));
  }
  void fraction(double v, const char*) { f64(v); }
  template <class T, class Fn>
  void vec(const std::vector<T>& v, const char*, Fn&& each) {
    u64(v.size());
    for (const T& x : v) each(x);
  }
  template <class K, class V, class Fn>
  void map(const std::map<K, V>& m, const char*, Fn&& each) {
    u64(m.size());
    for (const auto& [k, v] : m) each(k, v);
  }
  template <class T, class... Bounds>
  void state(const T& obj, const Bounds&... bounds) {
    obj.save_state(*this, bounds...);
  }
  void end() {}

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
/// current offset) instead of reading past the end or accepting a field
/// that fails its check.
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

  // ---- Two-way fields (see the file comment). ----
  template <std::integral T>
  void u8(T& v) {
    v = static_cast<T>(u8());
  }
  template <std::integral T>
  void u32(T& v) {
    v = static_cast<T>(u32());
  }
  template <std::integral T>
  void u64(T& v) {
    v = static_cast<T>(u64());
  }
  void f64(double& v) { v = f64(); }
  void boolean(bool& v) { v = boolean(); }
  void tag(const char (&name)[5]) {
    const std::size_t at = pos_;
    need(4, "section tag");
    if (std::memcmp(data_.data() + pos_, name, 4) != 0)
      throw RecoveryError(std::string("recovery: expected section tag ") +
                              name,
                          at);
    pos_ += 4;
  }
  void expect(std::uint64_t want, const char* what) {
    const std::size_t at = pos_;
    const std::uint64_t got = u64();
    if (got != want)
      mismatch(what, std::to_string(got), std::to_string(want), at);
  }
  void expect_flag(bool want, const char* what) {
    const std::size_t at = pos_;
    const bool got = boolean();
    if (got != want)
      mismatch(what, got ? "on" : "off", want ? "on" : "off", at);
  }
  void expect_name(const std::string& want, const char* what) {
    const std::size_t at = pos_;
    const std::string got = str();
    if (got != want) mismatch(what, got, want, at);
  }
  template <std::integral T>
  void index(T& v, std::uint64_t n, const char* what) {
    const std::size_t at = pos_;
    const std::uint64_t i = u64();
    if (i >= n)
      throw RecoveryError(std::string("recovery: ") + what + " " +
                              std::to_string(i) + " out of range [0, " +
                              std::to_string(n) + ")",
                          at);
    v = static_cast<T>(i);
  }
  template <class E>
  void enum_code(E& v, E max, const char* what) {
    const std::size_t at = pos_;
    const std::uint8_t c = u8();
    if (c > static_cast<std::uint8_t>(max))
      throw RecoveryError(std::string("recovery: invalid ") + what + " " +
                              std::to_string(c),
                          at);
    v = static_cast<E>(c);
  }
  void fraction(double& v, const char* what) {
    const std::size_t at = pos_;
    v = f64();
    if (!(v >= 0.0 && v <= 1.0))  // also rejects NaN
      throw RecoveryError(std::string("recovery: ") + what +
                              " outside [0, 1]",
                          at);
  }
  template <class T, class Fn>
  void vec(std::vector<T>& v, const char* what, Fn&& each) {
    v.resize(count(what));
    for (T& x : v) each(x);
  }
  template <class K, class V, class Fn>
  void map(std::map<K, V>& m, const char* what, Fn&& each) {
    m.clear();
    for (std::uint64_t n = count(what); n > 0; --n) {
      const std::size_t at = pos_;
      K k{};
      V v{};
      each(k, v);
      if (!m.empty() && !(m.rbegin()->first < k))
        throw RecoveryError(std::string("recovery: ") + what +
                                " keys out of order",
                            at);
      m.emplace_hint(m.end(), std::move(k), std::move(v));
    }
  }
  template <class T, class... Bounds>
  void state(T& obj, const Bounds&... bounds) {
    obj.restore_state(*this, bounds...);
  }
  void end() {
    if (!at_end())
      throw RecoveryError("recovery: trailing bytes after state", pos_);
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
  [[noreturn]] static void mismatch(const char* what, const std::string& got,
                                    const std::string& want, std::size_t at) {
    throw RecoveryError(std::string("recovery: snapshot ") + what + " " +
                            got + " does not match " + want,
                        at);
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace swallow::recovery
