#include "obs/profile.hpp"

#include <chrono>

namespace swallow::obs {

double wall_now_us() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch)
      .count();
}

void ProfileScope::end() {
  const double dur = wall_now_us() - start_us_;
  if (emit_events_) {
    TraceEvent ev;
    ev.name = name_;
    ev.cat = cat_;
    ev.ph = 'X';
    ev.ts = start_us_;
    ev.dur = dur;
    ev.pid = kWallPid;
    ev.tid = current_thread_tid();
    sink_->record(ev);
  }
  sink_->registry().profile_histogram(name_).record(dur);
}

}  // namespace swallow::obs
