#include "recovery/journal.hpp"

#include <bit>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <utility>

#include "codec/checksum.hpp"

namespace swallow::recovery {

namespace {

constexpr std::size_t kFrameHeader = 4 + 8;  // u32 len + u64 checksum
constexpr std::size_t kPayload = 8 + 1 + 8 + 8 + 8 + 8;  // seq,type,time,a,b,x
// A record payload is kPayload bytes today. Anything wildly larger is
// corruption, not a future format; cap it so a flipped length byte cannot
// drive a giant allocation.
constexpr std::uint32_t kMaxPayload = 4096;

JournalRecord decode_record(StateReader& r) {
  JournalRecord rec;
  rec.seq = r.u64();
  const std::uint8_t t = r.u8();
  if (t < static_cast<std::uint8_t>(JournalType::kArrival) ||
      t > static_cast<std::uint8_t>(JournalType::kCheckpoint))
    throw RecoveryError("journal: unknown record type " + std::to_string(t),
                        r.offset());
  rec.type = static_cast<JournalType>(t);
  rec.time = r.f64();
  rec.a = r.u64();
  rec.b = r.u64();
  rec.x = r.f64();
  return rec;
}

}  // namespace

const char* journal_type_name(JournalType type) {
  switch (type) {
    case JournalType::kArrival: return "arrival";
    case JournalType::kFlowComplete: return "flow_complete";
    case JournalType::kCoflowComplete: return "coflow_complete";
    case JournalType::kCapacityChange: return "capacity_change";
    case JournalType::kAdmissionVerdict: return "admission_verdict";
    case JournalType::kShed: return "shed";
    case JournalType::kCheckpoint: return "checkpoint";
  }
  return "unknown";
}

JournalWriter::~JournalWriter() { abandon(); }

void JournalWriter::open(const std::string& path) {
  close();
  file_ = std::fopen(path.c_str(), "ab");
  if (!file_)
    throw RecoveryError("journal: cannot open '" + path +
                        "': " + std::strerror(errno));
  path_ = path;
}

void JournalWriter::append(const JournalRecord& rec) {
  if (!file_) throw RecoveryError("journal: append on closed writer");
  std::uint8_t frame[kFrameHeader + kPayload];
  std::uint8_t* const payload = frame + kFrameHeader;
  store_le(payload, rec.seq);
  payload[8] = static_cast<std::uint8_t>(rec.type);
  store_le(payload + 9, std::bit_cast<std::uint64_t>(rec.time));
  store_le(payload + 17, rec.a);
  store_le(payload + 25, rec.b);
  store_le(payload + 33, std::bit_cast<std::uint64_t>(rec.x));
  store_le(frame, static_cast<std::uint32_t>(kPayload));
  store_le(frame + 4, codec::checksum64({payload, kPayload}));
  if (std::fwrite(frame, 1, sizeof frame, file_) != sizeof frame ||
      std::fflush(file_) != 0)
    throw RecoveryError("journal: write to '" + path_ +
                        "' failed: " + std::strerror(errno));
}

void JournalWriter::close() {
  if (!file_) return;
  std::FILE* f = std::exchange(file_, nullptr);
  if (std::fclose(f) != 0)
    throw RecoveryError("journal: closing '" + path_ +
                        "' failed: " + std::strerror(errno));
}

void JournalWriter::abandon() {
  if (file_) std::fclose(std::exchange(file_, nullptr));
}

JournalScan read_journal(const std::string& path) {
  JournalScan scan;
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return scan;

  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f)
    throw RecoveryError("journal: cannot open '" + path +
                        "': " + std::strerror(errno));
  std::vector<std::uint8_t> data;
  std::uint8_t chunk[64 * 1024];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0)
    data.insert(data.end(), chunk, chunk + n);
  std::fclose(f);

  StateReader r(data);
  std::uint64_t expect_seq = 0;
  bool first = true;
  while (!r.at_end()) {
    const std::uint64_t start = r.offset();
    // Tail detection: anything short/corrupt from here to EOF is a torn
    // append — unless a later record parses, which we only learn by
    // finishing the scan, so a mid-file checksum failure throws below.
    if (r.remaining() < kFrameHeader) {
      scan.torn = true;
      break;
    }
    const std::uint32_t len = r.u32();
    const std::uint64_t checksum = r.u64();
    if (len > kMaxPayload || r.remaining() < len) {
      scan.torn = true;
      scan.valid_bytes = start;
      return scan;
    }
    std::span<const std::uint8_t> payload(data.data() + r.offset(), len);
    if (codec::checksum64(payload) != checksum) {
      if (r.offset() + len == data.size()) {
        // Exactly the final record: a crash mid-append / torn tail.
        scan.torn = true;
        scan.valid_bytes = start;
        return scan;
      }
      throw RecoveryError("journal: checksum mismatch mid-file in '" + path +
                              "'",
                          start);
    }
    StateReader body(payload);
    JournalRecord rec = decode_record(body);
    if (!body.at_end())
      throw RecoveryError("journal: trailing bytes in record payload", start);
    if (!first && rec.seq != expect_seq)
      throw RecoveryError("journal: sequence gap in '" + path + "' (expected " +
                              std::to_string(expect_seq) + ", found " +
                              std::to_string(rec.seq) + ")",
                          start);
    first = false;
    expect_seq = rec.seq + 1;
    for (std::size_t i = 0; i < len; ++i) r.u8();  // consume payload
    scan.records.push_back(rec);
    scan.valid_bytes = r.offset();
  }
  return scan;
}

void truncate_torn_tail(const std::string& path, const JournalScan& scan) {
  if (!scan.torn) return;
  std::error_code ec;
  std::filesystem::resize_file(path, scan.valid_bytes, ec);
  if (ec)
    throw RecoveryError("journal: cannot truncate torn tail of '" + path +
                        "': " + ec.message());
}

}  // namespace swallow::recovery
