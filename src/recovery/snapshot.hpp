// Versioned, checksummed snapshot files.
//
// A snapshot wraps an opaque state payload (produced by the engine's or
// the runtime master's save_state) in the codec frame container, which
// gives per-block checksum64 (XXH64) guards and transparent compression
// for free:
//
//   'S''W''S''N' | u32le version | u64le config_fingerprint |
//   codec::frame(payload)
//
// The config fingerprint hashes everything that must match between the
// saving and restoring run (trace, scheduler, SimConfig knobs); restoring
// against a different configuration is a semantic error, caught up front
// instead of as silent divergence. Writes are atomic (tmp file + rename),
// so a crash mid-snapshot leaves either no file or a complete one — and a
// directory of `snap-<seq>.swsnap` files is scanned newest-first, skipping
// invalid entries, so a torn or corrupted newest snapshot falls back to
// the previous (or to a cold start, which determinism makes equally
// correct, merely slower).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "recovery/state_io.hpp"

namespace swallow::recovery {

// Version 2: frame blocks are guarded by XXH64 instead of FNV-1a, so a
// version-1 file is refused here instead of failing its block checksums.
inline constexpr std::uint32_t kSnapshotVersion = 2;

struct SnapshotMeta {
  std::uint64_t seq = 0;          // checkpoint sequence number
  std::uint32_t version = kSnapshotVersion;
  std::uint64_t fingerprint = 0;  // config/trace fingerprint
};

/// Injection point for the mid-snapshot crash test: called between the
/// partial tmp-file write and the rename. Null in production.
struct SnapshotCrashHook {
  virtual ~SnapshotCrashHook() = default;
  virtual void on_tmp_written(const std::string& tmp_path) = 0;
};

/// Writes `payload` as snapshot file `dir/snap-<seq>.swsnap` atomically.
/// Throws RecoveryError on I/O failure. `crash_hook`, when set, fires
/// after the tmp file hits disk but before the rename (so a hook that
/// throws models a crash mid-snapshot: the tmp file is left behind, the
/// published name never appears).
void write_snapshot(const std::string& dir, const SnapshotMeta& meta,
                    std::span<const std::uint8_t> payload,
                    SnapshotCrashHook* crash_hook = nullptr);

/// Parses one snapshot file; throws RecoveryError (with offset where
/// meaningful) on truncation, corruption, or version/fingerprint skew.
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
