// Event tracing for the simulator and runtime.
//
// A Sink receives TraceEvents; instrumentation sites hold an optional
// `Sink*` and do nothing when it is null (one branch, no allocation, no
// locking — the disabled-path guarantee DESIGN.md's Observability section
// documents). A layer reaches the sink through its own plumbing: there is
// no process-global one. A TraceEvent is a fixed-size record of
// static names and typed argument slots, so recording one copies no string.
// The bundled Tracer keeps the newest events in a ring, and its exporter is
// the only code that writes trace JSON: Chrome trace_event JSON (loadable
// in Perfetto or chrome://tracing).
//
// Two timelines coexist, separated by pid: kSimPid carries simulated time
// (1 µs = 1 simulated µs), kWallPid carries wall-clock profiling scopes.
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <deque>
#include <initializer_list>
#include <mutex>
#include <ostream>
#include <set>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace swallow::obs {

/// Chrome trace_event process ids: one per timebase.
inline constexpr std::uint32_t kSimPid = 1;   ///< simulated-time track
inline constexpr std::uint32_t kWallPid = 2;  ///< wall-clock track

/// Converts simulated seconds to trace microseconds.
inline double sim_ts(double seconds) { return seconds * 1e6; }

/// One typed argument of a TraceEvent. The key, and a string value, must
/// outlive the sink: a literal, or a string from Sink::intern.
struct Arg {
  using Value =
      std::variant<std::int64_t, std::uint64_t, double, bool, const char*>;

  const char* key = nullptr;  ///< null marks an unused slot
  Value value;

  Arg() = default;
  Arg(const char* k, bool v) : key(k), value(v) {}
  Arg(const char* k, double v) : key(k), value(v) {}
  Arg(const char* k, const char* v) : key(k), value(v) {}
  template <std::signed_integral T>
  Arg(const char* k, T v) : key(k), value(std::int64_t{v}) {}
  template <std::unsigned_integral T>
  Arg(const char* k, T v) : key(k), value(std::uint64_t{v}) {}
};

inline constexpr std::size_t kMaxArgs = 5;

/// A fixed-size trace record. It owns no memory: names, categories, keys
/// and string values are static strings.
struct TraceEvent {
  const char* name = "";
  const char* cat = "";
  char ph = 'i';  ///< 'X' complete span, 'i' instant
  double ts = 0;  ///< microseconds (simulated or wall, per pid); 'X' start
  double dur = 0;  ///< 'X' only
  std::uint32_t pid = kSimPid;
  std::uint32_t tid = 0;
  std::array<Arg, kMaxArgs> args{};  ///< filled from the front
};

/// Receiver of trace events. Implementations must tolerate concurrent
/// record() calls (the runtime traces from worker threads).
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void record(const TraceEvent& event) = 0;

  /// A copy of `s` that lives as long as the sink, for a string argument
  /// that is not a literal. Intern once per run, never per event.
  const char* intern(std::string_view s);

 private:
  std::mutex intern_mutex_;
  std::set<std::string> interned_;
};

/// In-memory sink: a ring that keeps the newest `max_events` records and
/// counts the older ones it overwrote. The export leads with a
/// `dropped_events` metadata record carrying that count.
class Tracer final : public Sink {
 public:
  static constexpr std::size_t kDefaultMaxEvents = 1 << 20;

  /// Throws std::invalid_argument when `max_events` is 0.
  explicit Tracer(std::size_t max_events = kDefaultMaxEvents);

  void record(const TraceEvent& event) override;

  std::size_t size() const;
  std::size_t dropped() const;
  std::vector<TraceEvent> events() const;  ///< snapshot, oldest first

  /// {"traceEvents":[...]}: the two process_name records, the dropped
  /// count, then the events sorted by ts (ties keep record order).
  void write_chrome_trace(std::ostream& out) const;

 private:
  mutable std::mutex mutex_;
  std::deque<TraceEvent> events_;
  std::size_t max_events_;
  std::size_t dropped_ = 0;
};

/// Records an instant event with up to kMaxArgs args; no-op when `sink` is
/// null.
void emit_instant(Sink* sink, double ts_us, const char* name, const char* cat,
                  std::initializer_list<Arg> args = {},
                  std::uint32_t pid = kSimPid, std::uint32_t tid = 0);

/// Small dense id for the calling thread (1, 2, ... in first-use order);
/// used as the Chrome tid of wall-clock events.
std::uint32_t current_thread_tid();

}  // namespace swallow::obs
