#include "codec/huffman.hpp"

#include <algorithm>
#include <cmath>
#include <array>
#include <vector>

namespace swallow::codec {

namespace {

constexpr std::size_t kSymbols = 256;
constexpr std::size_t kHeaderBytes = kSymbols;
// Huffman depth is bounded by log_phi(total); 64 covers any addressable
// input with comfortable margin.
constexpr int kMaxCodeLength = 64;

// A tree over 256 leaves has at most 255 internal nodes.
constexpr std::size_t kMaxNodes = 2 * kSymbols - 1;

/// Huffman code lengths from symbol counts (0 for absent symbols).
/// The comparator is a strict total order (count, then index), so the pair
/// extracted at every merge is unique — lengths are deterministic no matter
/// how the heap lays its array out.
std::array<std::uint8_t, kSymbols> code_lengths(
    const std::array<std::uint64_t, kSymbols>& counts) {
  std::array<std::uint8_t, kSymbols> lengths{};
  struct Node {
    std::uint64_t count;
    int index;  // < kSymbols: leaf; otherwise internal
  };
  const auto heavier = [](const Node& a, const Node& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.index > b.index;  // deterministic tie-break
  };
  // parent[] over leaves (0..255) then internal nodes (256..); fixed-size
  // scratch, no per-block allocation in the hot loop.
  std::array<int, kMaxNodes> parent;
  parent.fill(-1);
  // Reused across blocks on the same thread (the chunk pool gives each
  // worker its own).
  thread_local std::vector<Node> heap;
  heap.clear();
  heap.reserve(kSymbols);
  std::size_t present = 0;
  int last_leaf = -1;
  for (std::size_t s = 0; s < kSymbols; ++s) {
    if (counts[s] == 0) continue;
    heap.push_back({counts[s], static_cast<int>(s)});
    ++present;
    last_leaf = static_cast<int>(s);
  }
  if (present == 0) return lengths;
  if (present == 1) {
    lengths[static_cast<std::size_t>(last_leaf)] = 1;
    return lengths;
  }
  std::make_heap(heap.begin(), heap.end(), heavier);
  int num_nodes = static_cast<int>(kSymbols);
  while (heap.size() > 1) {
    std::pop_heap(heap.begin(), heap.end(), heavier);
    const Node a = heap.back();
    heap.pop_back();
    std::pop_heap(heap.begin(), heap.end(), heavier);
    const Node b = heap.back();
    heap.pop_back();
    const int internal = num_nodes++;
    parent[static_cast<std::size_t>(a.index)] = internal;
    parent[static_cast<std::size_t>(b.index)] = internal;
    heap.push_back({a.count + b.count, internal});
    std::push_heap(heap.begin(), heap.end(), heavier);
  }
  for (std::size_t s = 0; s < kSymbols; ++s) {
    if (counts[s] == 0) continue;
    int depth = 0;
    for (int node = static_cast<int>(s); parent[static_cast<std::size_t>(node)] != -1;
         node = parent[static_cast<std::size_t>(node)])
      ++depth;
    lengths[s] = static_cast<std::uint8_t>(depth);
  }
  return lengths;
}

/// Canonical codes from lengths: symbols sorted by (length, value) receive
/// consecutive codes per length tier.
struct CanonicalCodes {
  std::array<std::uint64_t, kSymbols> code{};
  std::array<std::uint8_t, kSymbols> length{};
  // Decoder tables indexed by code length.
  std::array<std::uint64_t, kMaxCodeLength + 1> first_code{};
  std::array<std::uint32_t, kMaxCodeLength + 1> first_index{};
  std::array<std::uint32_t, kMaxCodeLength + 1> count{};
  std::array<std::uint8_t, kSymbols> sorted_symbols{};  // by (length, value)
  std::uint32_t num_symbols = 0;
};

CanonicalCodes build_canonical(const std::array<std::uint8_t, kSymbols>& lengths) {
  CanonicalCodes canon;
  canon.length = lengths;
  // Counting sort by (length, value): a length histogram feeds per-tier
  // cursors, and one ascending pass over symbol values lands each symbol in
  // (length, value) order — the same canonical order as the old
  // length-major double loop, minus the 64x256 scan.
  std::array<std::uint32_t, kMaxCodeLength + 1> hist{};
  for (std::size_t s = 0; s < kSymbols; ++s) ++hist[lengths[s]];
  hist[0] = 0;  // absent symbols carry no code

  std::uint64_t code = 0;
  std::uint32_t index = 0;
  std::array<std::uint32_t, kMaxCodeLength + 1> cursor{};
  for (int len = 1; len <= kMaxCodeLength; ++len) {
    const auto l = static_cast<std::size_t>(len);
    code <<= 1;
    canon.first_code[l] = code;
    canon.first_index[l] = index;
    canon.count[l] = hist[l];
    cursor[l] = index;
    index += hist[l];
    code += hist[l];
  }
  canon.num_symbols = index;
  for (std::size_t s = 0; s < kSymbols; ++s) {
    const auto l = static_cast<std::size_t>(lengths[s]);
    if (l == 0) continue;
    canon.sorted_symbols[cursor[l]] = static_cast<std::uint8_t>(s);
    canon.code[s] = canon.first_code[l] + (cursor[l] - canon.first_index[l]);
    ++cursor[l];
  }
  return canon;
}

// 64-bit MSB-first accumulator; emits the same byte sequence as the old
// bit-at-a-time writer (including the zero-padded final partial byte) in
// word-sized steps.
class BitWriter {
 public:
  explicit BitWriter(std::span<std::uint8_t> out) : out_(out) {}
  void put(std::uint64_t code, int bits) {
    if (bits == 0) return;
    if (bits > 32) {  // codes up to kMaxCodeLength split into two halves
      put(code >> 32, bits - 32);
      put(code & 0xffffffffull, 32);
      return;
    }
    acc_ |= (code & ((1ull << bits) - 1)) << (64 - have_ - bits);
    have_ += bits;
    while (have_ >= 8) {
      out_[pos_++] = static_cast<std::uint8_t>(acc_ >> 56);
      acc_ <<= 8;
      have_ -= 8;
    }
  }
  std::size_t finish() {
    if (have_ > 0) {
      out_[pos_++] = static_cast<std::uint8_t>(acc_ >> 56);
      acc_ = 0;
      have_ = 0;
    }
    return pos_;
  }

 private:
  std::span<std::uint8_t> out_;
  std::size_t pos_ = 0;
  std::uint64_t acc_ = 0;
  int have_ = 0;
};

// Buffered MSB-first reader: peek() exposes the next kFastBits bits
// (zero-padded past the end) for the table-driven fast path; next() keeps
// the old bit-at-a-time contract for the fallback loop.
class BitReader {
 public:
  explicit BitReader(std::span<const std::uint8_t> in)
      : in_(in), bits_left_(in.size() * 8) {}
  std::uint32_t peek(int k) {
    refill();
    return static_cast<std::uint32_t>(buf_ >> (64 - k));
  }
  void consume(int k) {
    buf_ <<= k;
    have_ -= k;
    bits_left_ -= static_cast<std::size_t>(k);
  }
  std::size_t bits_left() const { return bits_left_; }
  int next() {
    if (bits_left_ == 0) return -1;
    refill();
    const int bit = static_cast<int>(buf_ >> 63);
    consume(1);
    return bit;
  }

 private:
  void refill() {
    while (have_ <= 56 && byte_ < in_.size()) {
      buf_ |= static_cast<std::uint64_t>(in_[byte_++]) << (56 - have_);
      have_ += 8;
    }
  }
  std::span<const std::uint8_t> in_;
  std::size_t byte_ = 0;
  std::uint64_t buf_ = 0;
  int have_ = 0;
  std::size_t bits_left_;
};

// Primary decode table width: codes up to kFastBits resolve in one lookup;
// longer (rare) codes fall back to the per-bit loop.
constexpr int kFastBits = 11;

}  // namespace

std::size_t HuffmanCodec::max_payload_size(std::size_t raw) const {
  // Optimal prefix codes never beat the trivial 8-bit code, plus header
  // and the final partial byte.
  return raw + kHeaderBytes + 8;
}

std::size_t HuffmanCodec::encode(std::span<const std::uint8_t> in,
                                 std::span<std::uint8_t> out) const {
  std::array<std::uint64_t, kSymbols> counts{};
  for (const std::uint8_t b : in) ++counts[b];
  const auto lengths = code_lengths(counts);
  const CanonicalCodes canon = build_canonical(lengths);

  std::copy(lengths.begin(), lengths.end(), out.begin());
  BitWriter writer(out.subspan(kHeaderBytes));
  for (const std::uint8_t b : in) writer.put(canon.code[b], lengths[b]);
  return kHeaderBytes + writer.finish();
}

void HuffmanCodec::decode(std::span<const std::uint8_t> in,
                          std::span<std::uint8_t> out) const {
  if (out.empty()) {
    if (in.size() < kHeaderBytes && !in.empty())
      throw CodecError("huffman: truncated header");
    return;
  }
  if (in.size() < kHeaderBytes) throw CodecError("huffman: truncated header");
  std::array<std::uint8_t, kSymbols> lengths{};
  std::copy_n(in.begin(), kHeaderBytes, lengths.begin());
  for (const std::uint8_t len : lengths)
    if (len > kMaxCodeLength) throw CodecError("huffman: bad code length");
  const CanonicalCodes canon = build_canonical(lengths);
  if (canon.num_symbols == 0)
    throw CodecError("huffman: empty code table with nonempty output");

  // Kraft check: a non-prefix-complete table means a corrupt header.
  double kraft = 0;
  for (std::uint32_t i = 0; i < canon.num_symbols; ++i)
    kraft += std::pow(2.0, -static_cast<double>(
                               lengths[canon.sorted_symbols[i]]));
  if (kraft > 1.0 + 1e-9) throw CodecError("huffman: invalid code table");

  // Primary table: every code of <= kFastBits bits owns the 2^(kFastBits -
  // len) windows it prefixes, so one peek resolves symbol and length at
  // once. Prefix-freeness (Kraft-checked above) keeps the fill ranges
  // disjoint; anything unmatched (longer codes, junk near the end of a
  // corrupt stream) takes the per-bit fallback, which preserves the exact
  // error behavior of the old loop.
  std::array<std::uint16_t, std::size_t{1} << kFastBits> fast{};  // len<<8|sym
  for (std::uint32_t i = 0; i < canon.num_symbols; ++i) {
    const std::uint8_t s = canon.sorted_symbols[i];
    const int len = lengths[s];
    if (len > kFastBits) continue;
    const std::size_t base = static_cast<std::size_t>(canon.code[s])
                             << (kFastBits - len);
    const std::size_t n = std::size_t{1} << (kFastBits - len);
    if (base + n > fast.size()) continue;  // inconsistent header: fallback
    const auto entry =
        static_cast<std::uint16_t>((len << 8) | s);
    std::fill_n(fast.begin() + base, n, entry);
  }

  BitReader reader(in.subspan(kHeaderBytes));
  for (std::size_t produced = 0; produced < out.size(); ++produced) {
    const std::uint16_t entry = fast[reader.peek(kFastBits)];
    const int flen = entry >> 8;
    if (flen != 0 && static_cast<std::size_t>(flen) <= reader.bits_left()) {
      out[produced] = static_cast<std::uint8_t>(entry & 0xff);
      reader.consume(flen);
      continue;
    }
    std::uint64_t code = 0;
    int len = 0;
    while (true) {
      const int bit = reader.next();
      if (bit < 0) throw CodecError("huffman: truncated bitstream");
      code = (code << 1) | static_cast<std::uint64_t>(bit);
      if (++len > kMaxCodeLength) throw CodecError("huffman: code overrun");
      const auto l = static_cast<std::size_t>(len);
      if (canon.count[l] != 0 && code >= canon.first_code[l] &&
          code - canon.first_code[l] < canon.count[l]) {
        out[produced] = canon.sorted_symbols[canon.first_index[l] +
                                             (code - canon.first_code[l])];
        break;
      }
    }
  }
}

ChainedCodec::ChainedCodec(std::unique_ptr<Codec> inner,
                           std::unique_ptr<Codec> outer, std::string name,
                           std::uint8_t id)
    : inner_(std::move(inner)),
      outer_(std::move(outer)),
      name_(std::move(name)),
      id_(id) {}

std::size_t ChainedCodec::max_payload_size(std::size_t raw) const {
  return outer_->max_compressed_size(inner_->max_compressed_size(raw));
}

std::size_t ChainedCodec::encode(std::span<const std::uint8_t> in,
                                 std::span<std::uint8_t> out) const {
  const Buffer stage1 = inner_->compress(in);
  return outer_->compress(stage1, out);
}

void ChainedCodec::decode(std::span<const std::uint8_t> in,
                          std::span<std::uint8_t> out) const {
  const Buffer stage1 = outer_->decompress(in);
  const std::size_t n = inner_->decompress(stage1, out);
  if (n != out.size()) throw CodecError(name_ + ": chained size mismatch");
}

}  // namespace swallow::codec
