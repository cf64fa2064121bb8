// Versioned, checksummed snapshot files.
//
// A snapshot stores an opaque state payload (produced by the engine's or
// the runtime master's save_state) raw, behind a fixed header and ahead of
// one XXH64 trailer:
//
//   'S''W''S''N' | u64le seq | u32le version | u64le config_fingerprint |
//   payload | u64le checksum64(every preceding byte)
//
// The payload is not compressed. Eq. 3's test (compress only when
// R·(1−ξ) > B) fails for a checkpoint: the LZ codec shrinks engine state at
// a rate well below what a page-cache write absorbs, so compressing only
// moved CPU time onto every checkpoint (DESIGN.md section 13).
//
// The config fingerprint hashes everything that must match between the
// saving and restoring run (trace, scheduler, SimConfig knobs); restoring
// against a different configuration is a semantic error, caught up front
// instead of as silent divergence. Writes are atomic (tmp file + rename),
// so a crash mid-snapshot leaves either no file or a complete one. After a
// publish, snapshots older than the previous one are deleted: a directory
// keeps the newest `snap-<seq>.swsnap` and one fallback, which the loader
// scans newest-first, skipping invalid entries, so a torn or corrupted
// newest snapshot falls back to the previous (or to a cold start, which
// determinism makes equally correct, merely slower).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "recovery/state_io.hpp"

namespace swallow::recovery {

// Version 5: raw payload under one whole-file XXH64. Version 1 (LZ frame,
// FNV-1a blocks), version 2 (LZ frame, XXH64 blocks), version 3 (as 4,
// plus a never-set per-flow compress flag) and version 4 (as 5, plus the
// engine's advanced-slice count) files are refused at the version field,
// before their fingerprint or body is looked at.
inline constexpr std::uint32_t kSnapshotVersion = 5;

struct SnapshotMeta {
  std::uint64_t seq = 0;          // checkpoint sequence number
  std::uint32_t version = kSnapshotVersion;
  std::uint64_t fingerprint = 0;  // config/trace fingerprint
};

/// Starts a snapshot image: clears `image` and writes the header for
/// `meta`. What the caller serializes into `image` next is the payload,
/// in place, so a checkpoint copies its state exactly once.
void begin_snapshot(StateWriter& image, const SnapshotMeta& meta);

/// Appends the checksum to an image begun by begin_snapshot and publishes
/// it as `dir/snap-<seq>.swsnap` atomically, then deletes the published
/// snapshots older than the previous one. Throws RecoveryError on I/O
/// failure, including a failed close, before anything is renamed.
/// `crash_hook`, when set, is called after the tmp file hits disk but
/// before the rename: a hook that throws models a crash mid-snapshot (the
/// tmp file is left behind, the published name never appears). Only the
/// crash-injection tests set it.
void write_snapshot(const std::string& dir, StateWriter& image,
                    const std::function<void()>& crash_hook = {});

/// Parses one snapshot file. Checks the magic, the version (offset 12),
/// the fingerprint, then the checksum, which also catches truncation,
/// trailing bytes and a flipped `seq`; throws RecoveryError (with offset
/// where meaningful) on the first failure.
/// `expected_fingerprint` of 0 skips the fingerprint check.
struct LoadedSnapshot {
  SnapshotMeta meta;
  std::vector<std::uint8_t> payload;
};
LoadedSnapshot read_snapshot(const std::string& path,
                             std::uint64_t expected_fingerprint = 0);

/// Scans `dir` for `snap-*.swsnap` files and loads the newest (highest
/// seq) that parses and matches the fingerprint, skipping torn/corrupt
/// candidates. Returns nullopt when none qualifies (cold start).
std::optional<LoadedSnapshot> load_latest_snapshot(
    const std::string& dir, std::uint64_t expected_fingerprint = 0);

/// Path a given sequence number publishes to.
std::string snapshot_path(const std::string& dir, std::uint64_t seq);

/// FNV-1a-based fingerprint builder for config/trace identity. Order of
/// mix calls is part of the fingerprint.
class Fingerprint {
 public:
  Fingerprint& mix(std::uint64_t v);
  Fingerprint& mix(double v);
  Fingerprint& mix(const std::string& s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;  // FNV offset basis
};

}  // namespace swallow::recovery
