#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/logging.hpp"
#include "obs/json.hpp"

namespace swallow::obs {

namespace {

void append_event(std::string& out, const TraceEvent& ev) {
  out += "{\"name\":";
  json_append_quoted(out, ev.name);
  out += ",\"cat\":";
  json_append_quoted(out, ev.cat);
  out += ",\"ph\":\"";
  out += ev.ph;
  out += "\",\"ts\":";
  json_append_number(out, ev.ts);
  out += ",\"pid\":" + std::to_string(ev.pid);
  out += ",\"tid\":" + std::to_string(ev.tid);
  if (ev.ph == 'X') {
    out += ",\"dur\":";
    json_append_number(out, ev.dur);
  }
  if (ev.ph == 'i') out += ",\"s\":\"g\"";  // global-scope instant marker
  for (std::size_t i = 0; i < kMaxArgs && ev.args[i].key != nullptr; ++i) {
    out += i == 0 ? ",\"args\":{" : ",";
    json_append_quoted(out, ev.args[i].key);
    out += ':';
    std::visit(
        [&out](auto v) {
          using T = decltype(v);
          if constexpr (std::is_same_v<T, bool>)
            out += v ? "true" : "false";
          else if constexpr (std::is_same_v<T, const char*>)
            json_append_quoted(out, v);
          else if constexpr (std::is_same_v<T, double>)
            json_append_number(out, v);
          else
            out += std::to_string(v);
        },
        ev.args[i].value);
  }
  if (ev.args[0].key != nullptr) out += '}';
  out += '}';
}

// The export writes its text in chunks of about this size, so it holds one
// small buffer instead of the whole document.
constexpr std::size_t kChunkBytes = 1 << 16;

void flush(std::ostream& out, std::string& buf) {
  out << buf;
  buf.clear();
}

}  // namespace

const char* Sink::intern(std::string_view s) {
  std::lock_guard<std::mutex> lock(intern_mutex_);
  return interned_.emplace(s).first->c_str();
}

Tracer::Tracer(std::size_t max_events) : max_events_(max_events) {
  if (max_events == 0)
    throw std::invalid_argument("obs: Tracer needs room for one event");
}

void Tracer::record(const TraceEvent& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (events_.size() == max_events_) {
    events_.pop_front();
    ++dropped_;
  }
  events_.push_back(event);
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::size_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_;
}

std::vector<TraceEvent> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {events_.begin(), events_.end()};
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // (ts, record index) pairs sort by ts with ties in record order.
  std::vector<std::pair<double, std::size_t>> order(events_.size());
  for (std::size_t i = 0; i < events_.size(); ++i)
    order[i] = {events_[i].ts, i};
  std::sort(order.begin(), order.end());

  // Named tracks so Perfetto labels the two timebases, then how many older
  // events the ring overwrote.
  std::string buf = "{\"traceEvents\":[";
  append_event(buf, {.name = "process_name", .cat = "__metadata", .ph = 'M',
                     .args = {Arg{"name", "simulated-time"}}});
  buf += ',';
  append_event(buf, {.name = "process_name", .cat = "__metadata", .ph = 'M',
                     .pid = kWallPid, .args = {Arg{"name", "wall-clock"}}});
  buf += ',';
  append_event(buf, {.name = "dropped_events", .cat = "__metadata", .ph = 'M',
                     .args = {Arg{"count", dropped_}}});
  for (const auto& [ts, i] : order) {
    buf += ',';
    append_event(buf, events_[i]);
    if (buf.size() >= kChunkBytes) flush(out, buf);
  }
  buf += "]}";
  flush(out, buf);
  if (dropped_ > 0)
    common::log_warn("obs: tracer dropped the oldest ", dropped_,
                     " events (ring of ", max_events_, " full)");
  common::log_info("obs: exported ", events_.size(), " trace events");
}

void emit_instant(Sink* sink, double ts_us, const char* name, const char* cat,
                  std::initializer_list<Arg> args, std::uint32_t pid,
                  std::uint32_t tid) {
  if (sink == nullptr) return;
  assert(args.size() <= kMaxArgs);
  TraceEvent ev;
  ev.name = name;
  ev.cat = cat;
  ev.ts = ts_us;
  ev.pid = pid;
  ev.tid = tid;
  std::copy_n(args.begin(), std::min(args.size(), kMaxArgs), ev.args.begin());
  sink->record(ev);
}

std::uint32_t current_thread_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace swallow::obs
