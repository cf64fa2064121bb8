// Write-ahead event journal.
//
// Every discrete event the engine is about to apply — arrival, flow or
// coflow completion, capacity change, admission verdict, deadline shed,
// checkpoint marker — is appended (and flushed) to the journal BEFORE the
// state mutation happens. Because the simulator is deterministic, the
// journal's primary recovery role is as a cross-check rather than a redo
// log: after restoring a snapshot the engine regenerates the event stream
// and verifies each regenerated event against the journal suffix, turning
// any snapshot/config/trace mismatch into a typed RecoveryError instead
// of a silently divergent run. A record journaled but never applied
// (crash between append and apply) is harmless: the regenerated stream
// reproduces it exactly.
//
// On-disk layout, per record (53 bytes today; tools/count_journal.py and
// existing journals depend on it):
//   u32le payload_len (41) | u64le checksum64(payload) |
//   payload: u64le seq | u8 type | f64le time | u64le a | u64le b | f64le x
// The writer builds each frame in a stack array, so an append allocates
// nothing. A reader stops cleanly at the first truncated or checksum-failing
// record (torn tail from a crash mid-append); corruption strictly before
// the tail still throws, because a torn *middle* cannot be produced by a
// crash and indicates real damage.
#pragma once

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "recovery/state_io.hpp"

namespace swallow::recovery {

enum class JournalType : std::uint8_t {
  kArrival = 1,          // a: coflow trace id, b: flow count
  kFlowComplete = 2,     // a: flow id, b: coflow trace id
  kCoflowComplete = 3,   // a: coflow trace id
  kCapacityChange = 4,   // a: port id, x: new multiplier
  kAdmissionVerdict = 5, // a: coflow trace id, b: verdict code, x: slack
  kShed = 6,             // a: coflow trace id
  kCheckpoint = 7,       // a: snapshot sequence number (scheduling round)
};

struct JournalRecord {
  std::uint64_t seq = 0;   // strictly increasing record number
  JournalType type = JournalType::kArrival;
  double time = 0.0;       // simulated time of the event
  std::uint64_t a = 0;     // type-specific payload (ids, counts)
  std::uint64_t b = 0;
  double x = 0.0;          // type-specific scalar (e.g. capacity multiplier)

  bool operator==(const JournalRecord&) const = default;
};

/// Appends records to a journal file, flushing after every record so the
/// write truly happens ahead of the state mutation. Opens in append mode:
/// a restored run continues the same file past the replay point.
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Opens (creating or appending). Throws RecoveryError on I/O failure.
  void open(const std::string& path);

  /// Appends one record and flushes. Throws RecoveryError on I/O failure.
  void append(const JournalRecord& rec);

  /// Closes the file; throws RecoveryError if the close reports a write
  /// error. No-op when not open.
  void close();
  /// Closes without checking, for paths that are already failing (an
  /// injected crash, the destructor).
  void abandon();

 private:
  std::FILE* file_ = nullptr;
  std::string path_;
};

/// Reads every valid record from a journal file. A torn tail (truncated
/// or checksum-failing final record — the normal signature of a crash
/// mid-append) ends the scan cleanly and is reported via `torn`; malformed
/// bytes with further valid records after them throw RecoveryError.
struct JournalScan {
  std::vector<JournalRecord> records;
  bool torn = false;           // file ended in a partial/corrupt record
  std::uint64_t valid_bytes = 0;  // prefix length covering `records`
};

JournalScan read_journal(const std::string& path);

/// Truncates the journal file to its valid prefix (drops a torn tail) so
/// a subsequent JournalWriter::open appends after the last good record.
/// No-op when the file is already clean. Throws RecoveryError on I/O
/// failure.
void truncate_torn_tail(const std::string& path, const JournalScan& scan);

const char* journal_type_name(JournalType type);

}  // namespace swallow::recovery
