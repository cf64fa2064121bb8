// ASCII table printer: every bench binary renders its paper-style table with
// this, so reports stay visually consistent.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace swallow::common {

class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);
  /// Renders with column-aligned pipes and a separator under the header.
  void print(std::ostream& os) const;

  std::size_t rows() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Number formatting helpers for table cells.
std::string fmt_double(double v, int precision = 2);
std::string fmt_percent(double fraction, int precision = 2);  ///< 0.4841 -> "48.41%"
std::string fmt_bytes(double bytes);       ///< human units: 1.5 MB, 2.3 GB...
std::string fmt_speedup(double factor);    ///< 1.47 -> "1.47x"
std::string fmt_int(double v);             ///< thousands separators: 79,913

/// The shortest decimal that reads back as exactly `v` (std::to_chars),
/// held in place so writing it allocates nothing; for files that must keep
/// every bit. Integral values below 2^53 print without an exponent,
/// non-finite ones as inf, -inf or nan.
class Shortest {
 public:
  explicit Shortest(double v);
  std::string_view view() const { return {buf_, size_}; }

 private:
  char buf_[32] = {};  // the longest, -2.2250738585072014e-308, takes 24
  std::size_t size_ = 0;
};

}  // namespace swallow::common
