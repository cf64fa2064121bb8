// RAII wall-clock profiling scopes (steady_clock). A scope with a null sink
// does nothing: no clock read, no allocation — safe to drop into hot paths
// unconditionally. With a sink attached it records one 'X' span on the
// wall-clock track when the scope ends.
#pragma once

#include "obs/trace.hpp"

namespace swallow::obs {

/// Microseconds since a process-wide steady_clock epoch (first call).
double wall_now_us();

class ProfileScope {
 public:
  /// `name`/`cat` must outlive the sink (string literals in practice).
  ///
  /// Ctor/dtor are inline so the null-sink case compiles down to a single
  /// predictable branch at the call site — no function call on hot paths.
  explicit ProfileScope(Sink* sink, const char* name,
                        const char* cat = "prof")
      : sink_(sink), name_(name), cat_(cat) {
    if (sink_ != nullptr) [[unlikely]] start_us_ = wall_now_us();
  }
  ~ProfileScope() {
    if (sink_ != nullptr) [[unlikely]] end();
  }

  ProfileScope(const ProfileScope&) = delete;
  ProfileScope& operator=(const ProfileScope&) = delete;

 private:
  void end();  // out of line: clock read, X span

  Sink* sink_;
  const char* name_;
  const char* cat_;
  double start_us_ = 0;
};

}  // namespace swallow::obs
