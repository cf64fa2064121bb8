// RAII wall-clock profiling scopes (steady_clock). A scope with a null sink
// does nothing: no clock read, no allocation — safe to drop into hot paths
// unconditionally. With a sink attached it records one 'X' span on the
// wall-clock track when the scope ends and the duration (µs) into the sink
// registry's "prof.<name>" histogram.
#pragma once

#include "obs/trace.hpp"

namespace swallow::obs {

/// Microseconds since a process-wide steady_clock epoch (first call).
double wall_now_us();

class ProfileScope {
 public:
  /// `name`/`cat` must outlive the sink (string literals in practice).
  /// `emit_events` false keeps only the histogram — for per-slice scopes
  /// whose spans would swamp the trace.
  ///
  /// Ctor/dtor are inline so the null-sink case compiles down to a single
  /// predictable branch at the call site — no function call on hot paths.
  explicit ProfileScope(Sink* sink, const char* name,
                        const char* cat = "prof", bool emit_events = true)
      : sink_(sink), name_(name), cat_(cat), emit_events_(emit_events) {
    if (sink_ != nullptr) [[unlikely]] start_us_ = wall_now_us();
  }
  ~ProfileScope() {
    if (sink_ != nullptr) [[unlikely]] end();
  }

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  void end();  // out of line: clock read, X span, histogram record

  Sink* sink_;
  const char* name_;
  const char* cat_;
  bool emit_events_;
  double start_us_ = 0;
};

}  // namespace swallow::obs
