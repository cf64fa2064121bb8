// Minimal JSON utilities for the observability layer: string escaping and
// compact number formatting for the exporters, plus a small document parser
// used to validate exported traces (tests, tooling). No external deps.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace swallow::obs {

/// Appends `s`, escaped per RFC 8259 and quoted, to `out`.
void json_append_quoted(std::string& out, std::string_view s);
/// `"escaped"` — `s` escaped and quoted.
std::string json_quote(std::string_view s);

/// Appends the shortest decimal that reads back as `v` (common::Shortest);
/// non-finite values become null (JSON has no NaN/Inf).
void json_append_number(std::string& out, double v);
std::string json_number(double v);

/// Parsed JSON document node. Containers preserve insertion order so
/// exporters can be validated byte-for-byte.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* find(std::string_view key) const;
};

/// Parses one complete JSON document (trailing whitespace allowed). Throws
/// std::runtime_error naming the byte offset on malformed input.
JsonValue parse_json(std::string_view text);

}  // namespace swallow::obs
