#include "codec/codec.hpp"

#include <array>

#include "codec/huffman.hpp"
#include "codec/lz_codec.hpp"
#include "codec/null_codec.hpp"
#include "codec/rle_codec.hpp"
#include "codec/varint.hpp"

namespace swallow::codec {

std::size_t Codec::compress(std::span<const std::uint8_t> in,
                            std::span<std::uint8_t> out) const {
  if (out.size() < max_compressed_size(in.size()))
    throw CodecError(name() + ": output buffer too small for compress");
  out[0] = id();
  std::size_t pos = 1;
  pos += write_varint(in.size(), out, pos);
  return pos + encode(in, out.subspan(pos));
}

std::size_t Codec::decompressed_size(std::span<const std::uint8_t> in) const {
  if (in.empty()) throw CodecError(name() + ": empty container");
  if (in[0] != id())
    throw CodecError(name() + ": container codec id mismatch");
  std::size_t pos = 1;
  return static_cast<std::size_t>(read_varint(in, pos));
}

std::size_t Codec::decompress(std::span<const std::uint8_t> in,
                              std::span<std::uint8_t> out) const {
  if (in.empty()) throw CodecError(name() + ": empty container");
  if (in[0] != id())
    throw CodecError(name() + ": container codec id mismatch");
  std::size_t pos = 1;
  const auto raw = static_cast<std::size_t>(read_varint(in, pos));
  if (out.size() < raw)
    throw CodecError(name() + ": output buffer too small for decompress");
  decode(in.subspan(pos), out.first(raw));
  return raw;
}

Buffer Codec::compress(std::span<const std::uint8_t> in) const {
  Buffer out(max_compressed_size(in.size()));
  out.resize(compress(in, out));
  return out;
}

Buffer Codec::decompress(std::span<const std::uint8_t> in) const {
  Buffer out(decompressed_size(in));
  decompress(in, out);
  return out;
}

double compression_ratio(std::size_t raw, std::size_t compressed) {
  if (raw == 0) return 1.0;
  return static_cast<double>(compressed) / static_cast<double>(raw);
}

std::unique_ptr<Codec> make_codec(CodecKind kind) {
  switch (kind) {
    case CodecKind::kNull: return std::make_unique<NullCodec>();
    case CodecKind::kRle: return std::make_unique<RleCodec>();
    case CodecKind::kLzFast: return std::make_unique<LzCodec>(LzPreset::kFast);
    case CodecKind::kLzBalanced:
      return std::make_unique<LzCodec>(LzPreset::kBalanced);
    case CodecKind::kLzHigh: return std::make_unique<LzCodec>(LzPreset::kHigh);
    case CodecKind::kHuffman: return std::make_unique<HuffmanCodec>();
    case CodecKind::kLzHuff:
      return std::make_unique<ChainedCodec>(
          std::make_unique<LzCodec>(LzPreset::kHigh),
          std::make_unique<HuffmanCodec>(), "swlz-max", 6);
  }
  throw CodecError("make_codec: unknown codec kind");
}

std::vector<CodecKind> all_codec_kinds() {
  return {CodecKind::kNull,       CodecKind::kRle,
          CodecKind::kLzFast,     CodecKind::kLzBalanced,
          CodecKind::kLzHigh,     CodecKind::kHuffman,
          CodecKind::kLzHuff};
}

const Codec& codec_for_id(std::uint8_t id) {
  static const auto table = [] {
    std::array<std::unique_ptr<Codec>, 256> codecs;
    for (const CodecKind kind : all_codec_kinds()) {
      auto codec = make_codec(kind);
      const std::uint8_t slot = codec->id();
      codecs[slot] = std::move(codec);
    }
    return codecs;
  }();
  if (!table[id]) throw CodecError("unknown codec id " + std::to_string(id));
  return *table[id];
}

const char* codec_kind_name(CodecKind kind) {
  switch (kind) {
    case CodecKind::kNull: return "null";
    case CodecKind::kRle: return "rle";
    case CodecKind::kLzFast: return "swlz-fast";
    case CodecKind::kLzBalanced: return "swlz-balanced";
    case CodecKind::kLzHigh: return "swlz-high";
    case CodecKind::kHuffman: return "huffman";
    case CodecKind::kLzHuff: return "swlz-max";
  }
  return "?";
}

}  // namespace swallow::codec
