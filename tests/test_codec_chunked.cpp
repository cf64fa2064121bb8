// Chunk-parallel container tests (DESIGN.md section 14): round-trip fuzz
// over random chunk geometries (including 1-byte chunks and chunks larger
// than the payload) for every codec kind, byte-identity of pool-parallel
// output against the serial reference path, streaming encoder equivalence
// with the one-shot call, and the corruption battery — torn frames,
// flipped bytes, forged codec ids — all of which must surface as typed
// CodecError, never as a wrong payload. The CI TSan job runs this binary
// to race-check the pool/encoder handoffs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "codec/chunk.hpp"
#include "codec/synth_data.hpp"
#include "codec/throughput.hpp"
#include "codec/varint.hpp"

namespace swallow::codec {
namespace {

using common::Rng;

// ---- round-trip matrix ----

class ChunkRoundtrip
    : public ::testing::TestWithParam<std::tuple<CodecKind, int, int>> {};

TEST_P(ChunkRoundtrip, CompressDecompressIsIdentity) {
  const auto [kind, size, chunk] = GetParam();
  Rng rng(static_cast<std::uint64_t>(size) * 31 + chunk);
  const Buffer payload =
      mixed_bytes(static_cast<std::size_t>(size), rng, 0.25);
  const auto codec = make_codec(kind);
  ChunkPool pool(4);
  const Buffer frame = chunk_compress(*codec, payload,
                                      static_cast<std::size_t>(chunk), &pool);
  EXPECT_TRUE(is_chunk_frame(frame));
  EXPECT_EQ(chunk_decompressed_size(frame), payload.size());
  EXPECT_EQ(chunk_decompress(frame, &pool), payload);
  // Serial (no pool) decode of the parallel-built frame, and vice versa.
  EXPECT_EQ(chunk_decompress(frame), payload);
}

std::string chunk_param_name(
    const ::testing::TestParamInfo<std::tuple<CodecKind, int, int>>& info) {
  std::string s = codec_kind_name(std::get<0>(info.param));
  for (auto& c : s)
    if (c == '-') c = '_';
  return s + "_" + std::to_string(std::get<1>(info.param)) + "b_" +
         std::to_string(std::get<2>(info.param)) + "c";
}

// Degenerate chunk geometries (1-byte and 7-byte chunks) pair only with
// small payloads: a 1-byte chunk turns every payload byte into a record,
// and the CI TSan job instruments each pool handoff, so large × tiny
// would dominate the suite's wall clock without adding coverage.
INSTANTIATE_TEST_SUITE_P(
    Degenerate, ChunkRoundtrip,
    ::testing::Combine(::testing::ValuesIn(all_codec_kinds()),
                       // payload sizes: empty, single byte, odd multi-chunk
                       ::testing::Values(0, 1, 4097),
                       // chunk sizes: 1-byte, odd, and larger than every
                       // payload above (single record)
                       ::testing::Values(1, 7, 1 << 20)),
    chunk_param_name);

INSTANTIATE_TEST_SUITE_P(
    Large, ChunkRoundtrip,
    ::testing::Combine(::testing::ValuesIn(all_codec_kinds()),
                       ::testing::Values(100000),
                       // multi-chunk, odd-boundary and single-record shapes
                       ::testing::Values(4096, 16384, 1 << 20)),
    chunk_param_name);

// ---- determinism: parallel output is byte-identical to serial ----

TEST(ChunkDeterminism, PoolOutputMatchesSerialForEveryCodec) {
  Rng rng(11);
  const Buffer payload = mixed_bytes(300000, rng, 0.2);
  ChunkPool pool(4);
  for (const CodecKind kind : all_codec_kinds()) {
    const auto codec = make_codec(kind);
    const Buffer serial = chunk_compress(*codec, payload, 32 * 1024, nullptr);
    const Buffer parallel = chunk_compress(*codec, payload, 32 * 1024, &pool);
    EXPECT_EQ(serial, parallel) << codec_kind_name(kind);
  }
}

TEST(ChunkDeterminism, ThreadCountNeverChangesBytes) {
  Rng rng(12);
  const Buffer payload = text_bytes(200000, rng);
  const auto codec = make_codec(CodecKind::kLzHuff);
  const Buffer reference = chunk_compress(*codec, payload, 24 * 1024, nullptr);
  for (const unsigned threads : {1u, 2u, 8u}) {
    ChunkPool pool(threads);
    EXPECT_EQ(chunk_compress(*codec, payload, 24 * 1024, &pool), reference)
        << threads << " threads";
  }
}

TEST(ChunkGeometry, SmallChunksAddPerRecordOverhead) {
  // Many small chunks vs few big ones: both round-trip, and the smaller
  // chunks pay for their extra records (and shorter LZ history) in size.
  Rng rng(9);
  const Buffer payload = run_bytes(200000, rng);
  const auto codec = make_codec(CodecKind::kLzBalanced);
  const Buffer small_chunks = chunk_compress(*codec, payload, 4 * 1024);
  const Buffer big_chunks = chunk_compress(*codec, payload, 128 * 1024);
  EXPECT_EQ(chunk_decompress(small_chunks), payload);
  EXPECT_EQ(chunk_decompress(big_chunks), payload);
  EXPECT_GT(small_chunks.size(), big_chunks.size());
}

// ---- random-geometry fuzz ----

TEST(ChunkFuzz, RandomGeometriesRoundTrip) {
  Rng rng(77);
  ChunkPool pool(4);
  ThroughputLedger ledger;
  const auto kinds = all_codec_kinds();
  for (int iter = 0; iter < 48; ++iter) {
    const CodecKind kind = kinds[rng.uniform_int(0, kinds.size() - 1)];
    // Log-uniform payload size in [0, ~128 KiB], log-uniform chunk size in
    // [1, 512 KiB] so chunk > payload, chunk == 1 and everything between
    // all come up.
    const auto payload_size = static_cast<std::size_t>(
        rng.uniform_int(0, 1) == 0
            ? rng.uniform_int(0, 64)
            : rng.uniform_int(1, 1 << rng.uniform_int(7, 17)));
    // Cap the record count at ~2k so tiny-chunk draws against large
    // payloads stay affordable under TSan; 1-byte chunks still come up
    // whenever the payload draw is small.
    const auto chunk_bytes = std::max<std::size_t>(
        static_cast<std::size_t>(
            rng.uniform_int(1, 1 << rng.uniform_int(0, 19))),
        payload_size >> 11);
    const Buffer payload = mixed_bytes(payload_size, rng, 0.3);
    const auto codec = make_codec(kind);
    const Buffer serial = chunk_compress(*codec, payload, chunk_bytes);
    const Buffer parallel =
        chunk_compress(*codec, payload, chunk_bytes, &pool, &ledger);
    ASSERT_EQ(serial, parallel)
        << codec_kind_name(kind) << " payload=" << payload_size
        << " chunk=" << chunk_bytes;
    ASSERT_EQ(chunk_decompress(parallel, &pool, &ledger), payload)
        << codec_kind_name(kind) << " payload=" << payload_size
        << " chunk=" << chunk_bytes;
  }
}

// ---- streaming encoder ----

TEST(ChunkEncoder_, PulledStreamMatchesOneShot) {
  Rng rng(21);
  const Buffer payload = mixed_bytes(150000, rng, 0.15);
  const auto codec = make_codec(CodecKind::kLzBalanced);
  const Buffer oneshot = chunk_compress(*codec, payload, 16 * 1024);
  ChunkPool pool(3);
  for (const std::size_t window : {std::size_t{1}, std::size_t{0}}) {
    ChunkEncoder enc(*codec, payload, 16 * 1024, &pool, nullptr, window);
    Buffer wire;
    std::size_t pieces = 0;
    while (enc.has_next()) {
      const Buffer piece = enc.next();
      wire.insert(wire.end(), piece.begin(), piece.end());
      ++pieces;
    }
    // The header, then one record per chunk.
    EXPECT_EQ(pieces, 1 + (payload.size() + 16 * 1024 - 1) / (16 * 1024));
    EXPECT_EQ(wire, oneshot) << "window=" << window;
  }
}

TEST(ChunkEncoder_, SerialInlinePathMatchesPool) {
  Rng rng(22);
  const Buffer payload = text_bytes(60000, rng);
  const auto codec = make_codec(CodecKind::kHuffman);
  ChunkEncoder enc(*codec, payload, 8 * 1024);  // no pool: lazy inline
  Buffer wire;
  while (enc.has_next()) {
    const Buffer piece = enc.next();
    wire.insert(wire.end(), piece.begin(), piece.end());
  }
  EXPECT_EQ(wire, chunk_compress(*codec, payload, 8 * 1024));
}

// ---- decompress_into ----

TEST(ChunkInto, DecodesIntoCallerBuffer) {
  Rng rng(41);
  const Buffer payload = mixed_bytes(50000, rng, 0.3);
  const auto codec = make_codec(CodecKind::kLzHigh);
  const Buffer frame = chunk_compress(*codec, payload, 8 * 1024);
  Buffer out(chunk_decompressed_size(frame) + 17);  // oversized is fine
  ChunkPool pool(2);
  EXPECT_EQ(chunk_decompress_into(frame, out, &pool), payload.size());
  out.resize(payload.size());
  EXPECT_EQ(out, payload);
  Buffer tiny(payload.size() - 1);
  EXPECT_THROW(chunk_decompress_into(frame, tiny), CodecError);
}

// ---- corruption battery ----

// A small, multi-record frame shared by the corruption tests.
Buffer corpus_frame(Buffer* payload_out = nullptr) {
  Rng rng(51);
  Buffer payload = mixed_bytes(2500, rng, 0.4);
  const auto codec = make_codec(CodecKind::kLzBalanced);
  Buffer frame = chunk_compress(*codec, payload, 600);
  if (payload_out != nullptr) *payload_out = std::move(payload);
  return frame;
}

TEST(ChunkCorruption, BadMagic) {
  Buffer frame = corpus_frame();
  frame[0] ^= 0xff;
  EXPECT_FALSE(is_chunk_frame(frame));
  EXPECT_THROW(chunk_decompress(frame), CodecError);
  EXPECT_THROW(chunk_decompressed_size(frame), CodecError);
}

TEST(ChunkCorruption, EveryTruncationThrows) {
  // A torn frame — cut at any byte boundary — must be a typed error, never
  // a short or garbage payload.
  const Buffer frame = corpus_frame();
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    EXPECT_THROW(
        chunk_decompress(std::span<const std::uint8_t>(frame.data(), cut)),
        CodecError)
        << "cut at " << cut;
  }
}

TEST(ChunkCorruption, TrailingGarbageThrows) {
  Buffer frame = corpus_frame();
  frame.push_back(0x5a);
  EXPECT_THROW(chunk_decompress(frame), CodecError);
}

TEST(ChunkCorruption, FlippedBytesThrow) {
  // Flip one byte at a spread of positions past the header; each must be
  // caught (checksum, size, codec id or container validation), and decoding
  // must never return success with wrong bytes.
  Buffer payload;
  const Buffer reference = corpus_frame(&payload);
  for (std::size_t pos = 8; pos < reference.size();
       pos += std::max<std::size_t>(reference.size() / 23, 1)) {
    Buffer frame = reference;
    frame[pos] ^= 0x01;
    try {
      const Buffer got = chunk_decompress(frame);
      ADD_FAILURE() << "flip at " << pos << " decoded without error";
    } catch (const CodecError&) {
      // expected
    }
  }
}

TEST(ChunkCorruption, EveryByteFlipThrowsOrDecodesExactly) {
  // XOR 0xFF (the flip FaultInjector::corrupt makes) and 0x80 (a varint
  // continuation bit) at every offset past the magic. Each decode must
  // throw CodecError or return the exact payload: a flipped raw_size byte
  // must not size a huge output buffer and escape as std::bad_alloc.
  struct Case {
    std::string name;
    Buffer payload;
    Buffer frame;
  };
  Case corpus{"corpus", {}, {}};
  corpus.frame = corpus_frame(&corpus.payload);
  std::vector<Case> cases{corpus};
  Rng rng(53);
  for (const CodecKind kind : all_codec_kinds()) {
    Buffer payload = mixed_bytes(5000, rng, 0.3);
    Buffer frame = chunk_compress(*make_codec(kind), payload);
    cases.push_back({codec_kind_name(kind), std::move(payload),
                     std::move(frame)});
  }
  for (const Case& c : cases) {
    for (std::size_t pos = 4; pos < c.frame.size(); ++pos) {
      for (const std::uint8_t mask : {0xff, 0x80}) {
        Buffer frame = c.frame;
        frame[pos] ^= mask;
        try {
          EXPECT_EQ(chunk_decompress(frame), c.payload)
              << c.name << ": flip " << int{mask} << " at " << pos;
        } catch (const CodecError&) {
          // expected
        }
      }
    }
  }
}

TEST(ChunkCorruption, RecordCodecIdMismatch) {
  // Forge the first record's leading codec-id byte: the record cross-check
  // against the container's own id byte must reject it.
  Buffer frame = corpus_frame();
  std::size_t pos = 4;                       // skip magic
  read_varint(frame, pos);                   // raw_size
  read_varint(frame, pos);                   // chunk_bytes
  ASSERT_LT(pos, frame.size());
  frame[pos] = frame[pos] == 0 ? 1 : 0;      // record codec id byte
  EXPECT_THROW(chunk_decompress(frame), CodecError);
}

TEST(ChunkCorruption, ZeroChunkSizeRejected) {
  Rng rng(52);
  const Buffer payload = random_bytes(64, rng);
  const auto codec = make_codec(CodecKind::kNull);
  EXPECT_THROW(chunk_compress(*codec, payload, 0), CodecError);
}

}  // namespace
}  // namespace swallow::codec
