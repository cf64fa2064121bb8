#include "workload/trace.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

namespace swallow::workload {

TraceParseError::TraceParseError(std::size_t line, const std::string& message)
    : std::runtime_error(message + " (line " + std::to_string(line) + ")"),
      line_(line) {}

namespace {

/// Ports/coflows/flows above this are treated as overflow: a corrupt count
/// must fail the parse instead of driving a multi-gigabyte reserve().
constexpr std::size_t kMaxCount = 1u << 24;

/// Non-negative integer with full-token and overflow validation.
std::size_t parse_count_token(std::size_t line, const char* context,
                              const char* what, const std::string& token,
                              std::size_t max) {
  if (token.empty() || token[0] == '-')
    throw TraceParseError(line, std::string(context) + ": negative " + what +
                                    " '" + token + "'");
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(token.c_str(), &end, 10);
  if (end != token.c_str() + token.size() || end == token.c_str())
    throw TraceParseError(line, std::string(context) + ": malformed " + what +
                                    " '" + token + "'");
  if (errno == ERANGE || v > max)
    throw TraceParseError(line, std::string(context) + ": " + what +
                                    " overflows '" + token + "'");
  return static_cast<std::size_t>(v);
}

/// Finite double with full-token validation (rejects NaN/inf/overflow).
double parse_finite_token(std::size_t line, const char* context,
                          const char* what, const std::string& token) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end != token.c_str() + token.size() || end == token.c_str())
    throw TraceParseError(line, std::string(context) + ": malformed " + what +
                                    " '" + token + "'");
  if (errno == ERANGE || !std::isfinite(v))
    throw TraceParseError(line, std::string(context) + ": non-finite " + what +
                                    " '" + token + "'");
  return v;
}

/// Whitespace-token reader that tracks the 1-based line of the token it
/// last produced, so every validation error can name its source line.
class TokenReader {
 public:
  explicit TokenReader(std::istream& in) : in_(in) {}

  std::size_t line() const { return line_; }

  /// Returns a previously next()-ed token to the reader; the following
  /// next() call produces it again. Depth one — enough for the optional
  /// `deadlines` directive lookahead.
  void push_back(std::string token) {
    pushed_ = std::move(token);
    has_pushed_ = true;
  }

  /// Next token, or throws naming `what` as the missing field.
  std::string next(const char* context, const char* what) {
    if (has_pushed_) {
      has_pushed_ = false;
      return std::move(pushed_);
    }
    std::string token;
    while (!(line_stream_ >> token)) {
      if (!std::getline(in_, buffer_))
        throw TraceParseError(line_, std::string(context) +
                                         ": truncated input, expected " + what);
      ++line_;
      line_stream_.clear();
      line_stream_.str(buffer_);
    }
    return token;
  }

  std::size_t next_count(const char* context, const char* what,
                         std::size_t max = kMaxCount) {
    return parse_count_token(line_, context, what, next(context, what), max);
  }

  double next_finite(const char* context, const char* what) {
    return parse_finite_token(line_, context, what, next(context, what));
  }

  fabric::PortId next_port(const char* context, const char* what,
                           std::size_t num_ports) {
    const std::size_t p = next_count(context, what, kMaxCount);
    if (p >= num_ports)
      throw TraceParseError(line_, std::string(context) + ": " + what + " " +
                                       std::to_string(p) +
                                       " out of range [0, " +
                                       std::to_string(num_ports) + ")");
    return static_cast<fabric::PortId>(p);
  }

 private:
  std::istream& in_;
  std::string buffer_;
  std::istringstream line_stream_;
  std::size_t line_ = 0;
  std::string pushed_;
  bool has_pushed_ = false;
};

}  // namespace

common::Bytes CoflowSpec::total_bytes() const {
  common::Bytes total = 0;
  for (const auto& f : flows) total += f.bytes;
  return total;
}

std::size_t Trace::total_flows() const {
  std::size_t n = 0;
  for (const auto& c : coflows) n += c.flows.size();
  return n;
}

common::Bytes Trace::total_bytes() const {
  common::Bytes total = 0;
  for (const auto& c : coflows) total += c.total_bytes();
  return total;
}

bool Trace::has_deadlines() const {
  for (const auto& c : coflows)
    if (c.has_deadline()) return true;
  return false;
}

void Trace::sort_by_arrival() {
  std::stable_sort(coflows.begin(), coflows.end(),
                   [](const CoflowSpec& a, const CoflowSpec& b) {
                     return a.arrival < b.arrival;
                   });
}

Trace parse_trace(std::istream& in) {
  TokenReader reader(in);
  Trace trace;
  trace.num_ports = reader.next_count("trace", "num_ports");
  if (trace.num_ports == 0)
    throw TraceParseError(reader.line(), "trace: zero ports");
  const std::size_t num_coflows = reader.next_count("trace", "num_coflows");

  // Optional `deadlines` directive: one lookahead token. Coflow ids are
  // numeric, so the keyword cannot collide with the first coflow header.
  bool has_deadlines = false;
  if (num_coflows > 0) {
    std::string tok = reader.next("trace", "coflow id");
    if (tok == "deadlines")
      has_deadlines = true;
    else
      reader.push_back(std::move(tok));
  }

  std::unordered_set<fabric::CoflowId> seen_ids;
  trace.coflows.reserve(num_coflows);
  for (std::size_t i = 0; i < num_coflows; ++i) {
    CoflowSpec coflow;
    coflow.id = reader.next_count("trace", "coflow id",
                                  std::numeric_limits<std::size_t>::max());
    if (!seen_ids.insert(coflow.id).second)
      throw TraceParseError(reader.line(), "trace: duplicate coflow id " +
                                               std::to_string(coflow.id));
    const double arrival_ms = reader.next_finite("trace", "arrival");
    if (arrival_ms < 0)
      throw TraceParseError(reader.line(), "trace: negative arrival");
    coflow.arrival = arrival_ms / 1000.0;
    coflow.job = reader.next_count("trace", "job id",
                                   std::numeric_limits<std::size_t>::max());
    const std::size_t num_flows = reader.next_count("trace", "num_flows");
    if (num_flows == 0)
      throw TraceParseError(reader.line(), "trace: coflow with no flows");
    if (has_deadlines) {
      // next_finite already rejects NaN/inf/overflow ("non-finite deadline").
      const double deadline_ms = reader.next_finite("trace", "deadline");
      if (deadline_ms < 0)
        throw TraceParseError(reader.line(), "trace: negative deadline");
      coflow.deadline = deadline_ms / 1000.0;
    }
    coflow.flows.reserve(num_flows);
    for (std::size_t j = 0; j < num_flows; ++j) {
      FlowSpec flow;
      flow.src = reader.next_port("trace", "src port", trace.num_ports);
      flow.dst = reader.next_port("trace", "dst port", trace.num_ports);
      flow.bytes = reader.next_finite("trace", "flow size");
      if (flow.bytes <= 0)
        throw TraceParseError(reader.line(), "trace: non-positive flow size");
      flow.compressible =
          reader.next_count("trace", "compressible flag", 1) != 0;
      coflow.flows.push_back(flow);
    }
    trace.coflows.push_back(std::move(coflow));
  }
  trace.sort_by_arrival();
  return trace;
}

Trace parse_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("trace: cannot open " + path);
  return parse_trace(in);
}

void write_trace(std::ostream& out, const Trace& trace) {
  // The `deadlines` directive and its column appear only when some coflow
  // carries one, so pre-deadline traces round-trip byte-identically.
  const bool deadlines = trace.has_deadlines();
  out << trace.num_ports << ' ' << trace.coflows.size();
  if (deadlines) out << " deadlines";
  out << '\n';
  for (const auto& c : trace.coflows) {
    out << c.id << ' ' << c.arrival * 1000.0 << ' ' << c.job << ' '
        << c.flows.size();
    if (deadlines) out << ' ' << c.deadline * 1000.0;
    out << '\n';
    for (const auto& f : c.flows)
      out << f.src << ' ' << f.dst << ' ' << f.bytes << ' '
          << (f.compressible ? 1 : 0) << '\n';
  }
}

Trace parse_facebook_trace(std::istream& in) {
  TokenReader reader(in);
  Trace trace;
  trace.num_ports = reader.next_count("fb-trace", "num_racks");
  if (trace.num_ports == 0)
    throw TraceParseError(reader.line(), "fb-trace: zero racks");
  const std::size_t num_jobs = reader.next_count("fb-trace", "num_jobs");

  // The published trace is 1-based; tolerate 0-based too.
  auto parse_rack = [&](std::size_t rack) {
    if (rack >= 1 && rack <= trace.num_ports)
      return static_cast<fabric::PortId>(rack - 1);
    if (rack < trace.num_ports) return static_cast<fabric::PortId>(rack);
    throw TraceParseError(reader.line(), "fb-trace: rack " +
                                             std::to_string(rack) +
                                             " out of range");
  };

  std::unordered_set<fabric::CoflowId> seen_ids;
  trace.coflows.reserve(num_jobs);
  for (std::size_t j = 0; j < num_jobs; ++j) {
    CoflowSpec coflow;
    coflow.id = reader.next_count("fb-trace", "job id",
                                  std::numeric_limits<std::size_t>::max());
    if (!seen_ids.insert(coflow.id).second)
      throw TraceParseError(reader.line(), "fb-trace: duplicate job id " +
                                               std::to_string(coflow.id));
    coflow.job = coflow.id;
    const double arrival_ms = reader.next_finite("fb-trace", "arrival");
    if (arrival_ms < 0)
      throw TraceParseError(reader.line(), "fb-trace: negative arrival");
    coflow.arrival = arrival_ms / 1000.0;
    const std::size_t num_mappers =
        reader.next_count("fb-trace", "mapper count");
    if (num_mappers == 0)
      throw TraceParseError(reader.line(), "fb-trace: no mappers");

    std::vector<fabric::PortId> mappers(num_mappers);
    for (auto& m : mappers)
      m = parse_rack(reader.next_count("fb-trace", "mapper rack"));

    const std::size_t num_reducers =
        reader.next_count("fb-trace", "reducer count");
    if (num_reducers == 0)
      throw TraceParseError(reader.line(), "fb-trace: bad reducer count");
    for (std::size_t r = 0; r < num_reducers; ++r) {
      const std::string token = reader.next("fb-trace", "reducer record");
      const auto colon = token.find(':');
      if (colon == std::string::npos)
        throw TraceParseError(reader.line(),
                              "fb-trace: reducer missing ':' in " + token);
      const fabric::PortId dst =
          parse_rack(parse_count_token(reader.line(), "fb-trace",
                                       "reducer rack", token.substr(0, colon),
                                       kMaxCount));
      const double total_mb =
          parse_finite_token(reader.line(), "fb-trace", "shuffle size",
                             token.substr(colon + 1));
      if (total_mb <= 0)
        throw TraceParseError(reader.line(),
                              "fb-trace: non-positive shuffle size");
      const common::Bytes per_mapper =
          total_mb * common::kMB / static_cast<double>(num_mappers);
      for (const fabric::PortId src : mappers)
        coflow.flows.push_back(FlowSpec{src, dst, per_mapper, true, 0});
    }
    trace.coflows.push_back(std::move(coflow));
  }
  trace.sort_by_arrival();
  return trace;
}

Trace parse_facebook_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("fb-trace: cannot open " + path);
  return parse_facebook_trace(in);
}

Trace filter_smallest_flows(const Trace& trace, double keep_fraction) {
  if (keep_fraction <= 0.0 || keep_fraction > 1.0)
    throw std::invalid_argument("filter_smallest_flows: fraction out of (0,1]");
  std::vector<common::Bytes> sizes;
  sizes.reserve(trace.total_flows());
  for (const auto& c : trace.coflows)
    for (const auto& f : c.flows) sizes.push_back(f.bytes);
  if (sizes.empty()) return trace;
  std::sort(sizes.begin(), sizes.end());
  const auto cut = static_cast<std::size_t>(std::llround(
      (1.0 - keep_fraction) * static_cast<double>(sizes.size())));
  const common::Bytes threshold = cut == 0 ? -1.0 : sizes[cut - 1];

  Trace out;
  out.num_ports = trace.num_ports;
  for (const auto& c : trace.coflows) {
    CoflowSpec filtered = c;
    filtered.flows.clear();
    for (const auto& f : c.flows)
      if (f.bytes > threshold) filtered.flows.push_back(f);
    if (!filtered.flows.empty()) out.coflows.push_back(std::move(filtered));
  }
  return out;
}

}  // namespace swallow::workload
