// Compression codec interface.
//
// Every codec writes a self-describing container: a one-byte codec id, a
// varint raw size, then the codec-specific payload. decompress() therefore
// needs no out-of-band metadata, mirroring how Spark block transfers carry
// their own framing.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace swallow::codec {

using Buffer = std::vector<std::uint8_t>;

/// Thrown on corrupt or truncated compressed input.
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

class Codec {
 public:
  virtual ~Codec() = default;

  virtual std::string name() const = 0;
  /// One-byte id stored in the container header.
  virtual std::uint8_t id() const = 0;

  /// Worst-case container size for `raw` input bytes: the header (id and
  /// varint raw size) plus the codec's worst-case payload.
  std::size_t max_compressed_size(std::size_t raw) const;

  /// Compresses `in` into `out` (sized >= max_compressed_size(in.size())).
  /// Returns the container size.
  std::size_t compress(std::span<const std::uint8_t> in,
                       std::span<std::uint8_t> out) const;

  /// Decompresses a container produced by this codec. Returns raw size.
  /// `out` must be at least decompressed_size(in) bytes.
  std::size_t decompress(std::span<const std::uint8_t> in,
                         std::span<std::uint8_t> out) const;

  /// Raw size recorded in a container header (validates the codec id).
  std::size_t decompressed_size(std::span<const std::uint8_t> in) const;

  // Convenience allocating wrappers.
  Buffer compress(std::span<const std::uint8_t> in) const;
  Buffer decompress(std::span<const std::uint8_t> in) const;

 protected:
  /// Codec-specific payload encode; returns payload size.
  virtual std::size_t encode(std::span<const std::uint8_t> in,
                             std::span<std::uint8_t> out) const = 0;
  /// Codec-specific payload decode into exactly `out.size()` bytes.
  virtual void decode(std::span<const std::uint8_t> in,
                      std::span<std::uint8_t> out) const = 0;
  /// Worst-case payload size (container adds its own header on top).
  virtual std::size_t max_payload_size(std::size_t raw) const = 0;
};

/// Compressed-over-raw ratio of a container (paper convention: smaller is
/// better, e.g. LZ4 "62.15%").
double compression_ratio(std::size_t raw, std::size_t compressed);

enum class CodecKind : std::uint8_t {
  kNull = 0,
  kRle = 1,
  kLzFast = 2,      ///< swlz-fast: small hash table + skip acceleration
  kLzBalanced = 3,  ///< swlz-balanced: full hash table, greedy
  kLzHigh = 4,      ///< swlz-high: hash chains, better ratio, slower
  kHuffman = 5,     ///< order-0 canonical Huffman (entropy only)
  kLzHuff = 6,      ///< swlz-max: swlz-high chained into Huffman
};

/// Factory for the built-in codecs.
std::unique_ptr<Codec> make_codec(CodecKind kind);

/// All built-in kinds, for parameterized tests and benches.
std::vector<CodecKind> all_codec_kinds();

/// The shared built-in codec whose containers carry `id`; throws CodecError
/// on an unknown id. Codecs keep no per-call state, so any number of
/// threads may use the returned instance at once.
const Codec& codec_for_id(std::uint8_t id);

const char* codec_kind_name(CodecKind kind);

}  // namespace swallow::codec
