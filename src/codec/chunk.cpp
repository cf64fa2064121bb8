#include "codec/chunk.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "codec/checksum.hpp"
#include "codec/throughput.hpp"
#include "codec/varint.hpp"
#include "obs/profile.hpp"

namespace swallow::codec {

namespace {

constexpr std::uint8_t kChunkMagic[4] = {'S', 'W', 'F', '2'};

void write_u64le(std::uint64_t v, std::uint8_t* out) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t read_u64le(const std::uint8_t* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= std::uint64_t(in[i]) << (8 * i);
  return v;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Never wraps, even for a forged raw_size near 2^64: the header bound in
// parse_chunk_header relies on it.
std::size_t chunk_count(std::size_t raw, std::size_t chunk_bytes) {
  return raw == 0 ? 0 : raw / chunk_bytes + (raw % chunk_bytes != 0);
}

unsigned default_pool_threads(unsigned requested) {
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min(4u, hw == 0 ? 1u : hw);
}

}  // namespace

// ---- ChunkPool ----

ChunkPool::ChunkPool(unsigned threads, obs::Sink* sink) : sink_(sink) {
  const unsigned n = default_pool_threads(threads);
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i)
    workers_.emplace_back([this] { loop(); });
}

ChunkPool::~ChunkPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
}

void ChunkPool::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void ChunkPool::loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();  // jobs catch their own exceptions (exception_ptr per slot)
  }
}

// ---- ChunkEncoder ----

ChunkEncoder::ChunkEncoder(const Codec& codec,
                           std::span<const std::uint8_t> payload,
                           std::size_t chunk_bytes, ChunkPool* pool,
                           ThroughputLedger* ledger, std::size_t window)
    : codec_(&codec),
      payload_(payload),
      chunk_bytes_(chunk_bytes),
      num_chunks_(0),
      window_(window),
      pool_(pool),
      ledger_(ledger) {
  if (chunk_bytes_ == 0) throw CodecError("chunk: zero chunk size");
  num_chunks_ = chunk_count(payload_.size(), chunk_bytes_);
  if (pool_ != nullptr && pool_->size() > 0) {
    if (window_ == 0) window_ = std::max<std::size_t>(2, 2 * pool_->size());
    slots_.resize(num_chunks_);
  } else {
    pool_ = nullptr;  // inline serial path
  }
}

ChunkEncoder::~ChunkEncoder() {
  if (pool_ == nullptr) return;
  // Outstanding jobs reference our slots; wait for every submitted one.
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] {
    for (std::size_t i = next_emit_; i < next_submit_; ++i)
      if (!slots_[i].done) return false;
    return true;
  });
}

Buffer ChunkEncoder::encode_record(std::size_t index) const {
  obs::ProfileScope scope(pool_ != nullptr ? pool_->sink() : nullptr,
                          "codec.chunk_encode", "codec");
  const std::size_t off = index * chunk_bytes_;
  const std::size_t len = std::min(chunk_bytes_, payload_.size() - off);
  const std::span<const std::uint8_t> raw = payload_.subspan(off, len);

  const auto t0 = std::chrono::steady_clock::now();
  Buffer container(codec_->max_compressed_size(len));
  const std::size_t stored = codec_->compress(raw, container);

  Buffer record(1 + kMaxVarintBytes + 8 + stored);
  record[0] = codec_->id();
  std::size_t pos = 1;
  pos += write_varint(stored, record, pos);
  write_u64le(checksum64(raw), record.data() + pos);
  pos += 8;
  std::memcpy(record.data() + pos, container.data(), stored);
  record.resize(pos + stored);
  if (ledger_ != nullptr)
    ledger_->record_encode(len, record.size(), seconds_since(t0));
  return record;
}

void ChunkEncoder::submit_until(std::size_t hi) {
  hi = std::min(hi, num_chunks_);
  for (; next_submit_ < hi; ++next_submit_) {
    const std::size_t i = next_submit_;
    pool_->submit([this, i] {
      Slot& slot = slots_[i];
      Buffer record;
      std::exception_ptr error;
      try {
        record = encode_record(i);
      } catch (...) {
        error = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        slot.record = std::move(record);
        slot.error = error;
        slot.done = true;
        // Notify while still holding the lock: once `done` is visible the
        // destructor's wait may return and free *this, so an unlocked
        // notify would touch a dead condition variable.
        cv_.notify_all();
      }
    });
  }
}

Buffer ChunkEncoder::next() {
  if (!header_emitted_) {
    header_emitted_ = true;
    Buffer header(sizeof(kChunkMagic) + 2 * kMaxVarintBytes);
    std::memcpy(header.data(), kChunkMagic, sizeof(kChunkMagic));
    std::size_t pos = sizeof(kChunkMagic);
    pos += write_varint(payload_.size(), header, pos);
    pos += write_varint(chunk_bytes_, header, pos);
    header.resize(pos);
    if (pool_ != nullptr) {
      const std::size_t burst =
          window_ >= num_chunks_ ? num_chunks_ : window_;
      submit_until(burst);
    }
    return header;
  }
  if (next_emit_ >= num_chunks_)
    throw CodecError("chunk: next() past end of stream");
  const std::size_t i = next_emit_++;
  if (pool_ == nullptr) return encode_record(i);
  Buffer record;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return slots_[i].done; });
    if (slots_[i].error) std::rethrow_exception(slots_[i].error);
    record = std::move(slots_[i].record);
  }
  // Top the encode-ahead window back up while the caller transmits.
  if (window_ < num_chunks_) submit_until(next_emit_ + window_);
  return record;
}

// ---- one-shot helpers ----

Buffer chunk_compress(const Codec& codec, std::span<const std::uint8_t> payload,
                      std::size_t chunk_bytes, ChunkPool* pool,
                      ThroughputLedger* ledger) {
  ChunkEncoder enc(codec, payload, chunk_bytes, pool, ledger,
                   /*window=*/SIZE_MAX);
  Buffer out;
  out.reserve(payload.size() / 2 + 64);
  while (enc.has_next()) {
    const Buffer piece = enc.next();
    out.insert(out.end(), piece.begin(), piece.end());
  }
  return out;
}

namespace {

struct ChunkHeader {
  std::size_t raw_size = 0;
  std::size_t chunk_bytes = 0;
  std::size_t pos = 0;  // first byte past the header
};

ChunkHeader parse_chunk_header(std::span<const std::uint8_t> frame) {
  if (!is_chunk_frame(frame)) throw CodecError("chunk: bad magic");
  ChunkHeader h;
  h.pos = sizeof(kChunkMagic);
  h.raw_size = static_cast<std::size_t>(read_varint(frame, h.pos));
  h.chunk_bytes = static_cast<std::size_t>(read_varint(frame, h.pos));
  if (h.chunk_bytes == 0 && h.raw_size > 0)
    throw CodecError("chunk: zero chunk size in header");
  // Every record is at least 11 bytes (id, 1-byte varint, checksum and a
  // non-empty container), so a header claiming more chunks than the rest of
  // the frame can hold is corrupt. Rejecting it here keeps a flipped
  // raw_size byte from sizing a multi-gigabyte output buffer.
  constexpr std::size_t kMinRecordBytes = 1 + 1 + 8 + 1;
  if (chunk_count(h.raw_size, h.chunk_bytes) >
      (frame.size() - h.pos) / kMinRecordBytes)
    throw CodecError("chunk: header claims more chunks than the frame holds");
  return h;
}

struct ChunkRef {
  std::size_t container_pos = 0;
  std::size_t container_size = 0;
  std::uint64_t checksum = 0;
  std::uint8_t codec_id = 0;
  std::size_t raw_off = 0;
  std::size_t raw_len = 0;
};

// Decodes one record's container straight into `out` and verifies the
// checksum.
void decode_chunk(std::span<const std::uint8_t> container,
                  std::uint8_t record_id, std::uint64_t checksum,
                  std::span<std::uint8_t> out, std::size_t index,
                  ThroughputLedger* ledger, obs::Sink* sink) {
  obs::ProfileScope scope(sink, "codec.chunk_decode", "codec");
  if (container.empty() || container[0] != record_id)
    throw CodecError("chunk: record codec id mismatch in chunk " +
                     std::to_string(index));
  const auto t0 = std::chrono::steady_clock::now();
  // A container recording more bytes than `out` holds throws inside
  // decompress; one recording fewer is caught here.
  if (codec_for_id(record_id).decompress(container, out) != out.size())
    throw CodecError("chunk: size mismatch in chunk " + std::to_string(index));
  if (checksum64(out) != checksum)
    throw CodecError("chunk: checksum mismatch in chunk " +
                     std::to_string(index));
  if (ledger != nullptr)
    ledger->record_decode(out.size(), seconds_since(t0));
}

}  // namespace

std::size_t chunk_decompress_into(std::span<const std::uint8_t> frame,
                                  std::span<std::uint8_t> out, ChunkPool* pool,
                                  ThroughputLedger* ledger) {
  const ChunkHeader h = parse_chunk_header(frame);
  if (out.size() < h.raw_size)
    throw CodecError("chunk: output buffer too small");
  const std::size_t chunks = chunk_count(h.raw_size, h.chunk_bytes);

  // Walk the records serially (headers are tiny), then decode in parallel.
  std::vector<ChunkRef> refs;
  refs.reserve(chunks);
  std::size_t pos = h.pos;
  std::size_t raw_off = 0;
  for (std::size_t i = 0; i < chunks; ++i) {
    if (pos >= frame.size()) throw CodecError("chunk: truncated record");
    ChunkRef ref;
    ref.codec_id = frame[pos++];
    ref.container_size = static_cast<std::size_t>(read_varint(frame, pos));
    if (pos + 8 > frame.size()) throw CodecError("chunk: truncated checksum");
    ref.checksum = read_u64le(frame.data() + pos);
    pos += 8;
    if (pos + ref.container_size > frame.size())
      throw CodecError("chunk: truncated record");
    ref.container_pos = pos;
    pos += ref.container_size;
    ref.raw_off = raw_off;
    ref.raw_len = std::min(h.chunk_bytes, h.raw_size - raw_off);
    raw_off += ref.raw_len;
    refs.push_back(ref);
  }
  if (pos != frame.size()) throw CodecError("chunk: trailing garbage");

  obs::Sink* const sink = pool != nullptr ? pool->sink() : nullptr;
  const auto decode_one = [&](const ChunkRef& ref, std::size_t index) {
    decode_chunk(frame.subspan(ref.container_pos, ref.container_size),
                 ref.codec_id, ref.checksum,
                 out.subspan(ref.raw_off, ref.raw_len), index, ledger, sink);
  };

  if (pool == nullptr || pool->size() == 0 || refs.size() <= 1) {
    for (std::size_t i = 0; i < refs.size(); ++i) decode_one(refs[i], i);
    return h.raw_size;
  }

  std::mutex mutex;
  std::condition_variable cv;
  std::size_t remaining = refs.size();
  std::exception_ptr error;
  for (std::size_t i = 0; i < refs.size(); ++i) {
    pool->submit([&, i] {
      std::exception_ptr e;
      try {
        decode_one(refs[i], i);
      } catch (...) {
        e = std::current_exception();
      }
      std::lock_guard<std::mutex> lock(mutex);
      if (e && !error) error = e;
      if (--remaining == 0) cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [&] { return remaining == 0; });
  if (error) std::rethrow_exception(error);
  return h.raw_size;
}

Buffer chunk_decompress(std::span<const std::uint8_t> frame, ChunkPool* pool,
                        ThroughputLedger* ledger) {
  Buffer out(chunk_decompressed_size(frame));
  chunk_decompress_into(frame, out, pool, ledger);
  return out;
}

std::size_t chunk_decompressed_size(std::span<const std::uint8_t> frame) {
  return parse_chunk_header(frame).raw_size;
}

bool is_chunk_frame(std::span<const std::uint8_t> data) {
  return data.size() >= sizeof(kChunkMagic) &&
         std::memcmp(data.data(), kChunkMagic, sizeof(kChunkMagic)) == 0;
}

}  // namespace swallow::codec
