// Recovery configuration and the crash-injection harness.
//
// RecoveryOptions plugs into SimConfig (and the trace_replay CLI as
// --checkpoint-every / --recovery-dir / --restore): the engine writes a
// snapshot every N scheduling rounds at its natural fold points and
// appends every discrete event to the write-ahead journal first.
//
// CrashPlan simulates the crash itself, deterministically: kill exactly
// at the Nth journaled event, kill mid-snapshot (after the tmp write,
// before the rename), or tear the last M bytes off the journal tail at
// crash time. In-process the "kill" is a thrown CrashError — the same
// non-local exit a SIGKILL gives the persistent files, since every
// journal append is flushed and snapshots publish atomically; across a
// process boundary trace_replay converts CrashError into exit code 42
// for the CI cmp gate.
#pragma once

#include <cstdint>
#include <string>

#include "recovery/state_io.hpp"

namespace swallow::recovery {

/// Thrown at an injected crash point. Deliberately NOT a RecoveryError:
/// a crash is the event under test, not a recovery failure.
class CrashError : public std::runtime_error {
 public:
  explicit CrashError(const std::string& what) : std::runtime_error(what) {}
};

/// Deterministic crash injection. Default-constructed = never crash.
struct CrashPlan {
  /// Crash immediately after appending the Nth journal record (1-based;
  /// 0 = disabled). The record is on disk, its mutation never applies —
  /// the worst-case write-ahead window.
  std::uint64_t kill_at_event = 0;

  /// Crash after the Nth snapshot's tmp file is written but before it is
  /// renamed into place (1-based; 0 = disabled).
  std::uint64_t kill_mid_snapshot = 0;

  /// At crash time, additionally truncate this many bytes off the journal
  /// tail, modeling an append that only partially reached the disk.
  std::uint64_t torn_tail_bytes = 0;

  bool enabled() const { return kill_at_event > 0 || kill_mid_snapshot > 0; }
};

struct RecoveryOptions {
  /// Snapshot every N scheduling rounds (0 = no snapshots). Checkpoints
  /// happen only at post-schedule fold points, so they never perturb the
  /// byte-identity of the simulation itself.
  std::uint64_t checkpoint_every = 0;

  /// Directory for snapshot files and the write-ahead event journal,
  /// which every persisted run keeps. Empty disables all persistence (and
  /// restore).
  std::string dir;

  /// Start by restoring the newest valid snapshot in `dir` (cold start
  /// if none) and verify regenerated events against the journal suffix.
  bool restore = false;

  /// Crash injection for tests/CI; not owned.
  const CrashPlan* crash = nullptr;
};

}  // namespace swallow::recovery
