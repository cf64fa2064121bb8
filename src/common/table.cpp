#include "common/table.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace swallow::common {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty()) throw std::invalid_argument("Table: empty header");
}

void Table::add_row(std::vector<std::string> row) {
  if (row.size() != header_.size())
    throw std::invalid_argument("Table: row width mismatch");
  rows_.push_back(std::move(row));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> width(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      width[c] = std::max(width[c], row[c].size());

  auto emit = [&](const std::vector<std::string>& cells) {
    os << "|";
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << ' ' << cells[c];
      for (std::size_t pad = cells[c].size(); pad < width[c]; ++pad) os << ' ';
      os << " |";
    }
    os << '\n';
  };

  emit(header_);
  os << "|";
  for (std::size_t c = 0; c < header_.size(); ++c) {
    for (std::size_t i = 0; i < width[c] + 2; ++i) os << '-';
    os << "|";
  }
  os << '\n';
  for (const auto& row : rows_) emit(row);
}

std::string fmt_double(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

Shortest::Shortest(double v) {
  const bool integral = std::fabs(v) < 0x1p53 && v == std::trunc(v);
  char* const end = buf_ + sizeof(buf_);
  const std::to_chars_result r =
      integral ? std::to_chars(buf_, end, v, std::chars_format::fixed)
               : std::to_chars(buf_, end, v);
  size_ = static_cast<std::size_t>(r.ptr - buf_);
}

std::string fmt_percent(double fraction, int precision) {
  return fmt_double(fraction * 100.0, precision) + "%";
}

std::string fmt_bytes(double bytes) {
  const char* unit = "B";
  double v = bytes;
  if (v >= 1024.0 * 1024.0 * 1024.0 * 1024.0) {
    v /= 1024.0 * 1024.0 * 1024.0 * 1024.0;
    unit = "TB";
  } else if (v >= 1024.0 * 1024.0 * 1024.0) {
    v /= 1024.0 * 1024.0 * 1024.0;
    unit = "GB";
  } else if (v >= 1024.0 * 1024.0) {
    v /= 1024.0 * 1024.0;
    unit = "MB";
  } else if (v >= 1024.0) {
    v /= 1024.0;
    unit = "KB";
  }
  return fmt_double(v, 2) + " " + unit;
}

std::string fmt_speedup(double factor) { return fmt_double(factor, 2) + "x"; }

std::string fmt_int(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f", std::round(v));
  std::string digits = buf;
  bool negative = !digits.empty() && digits[0] == '-';
  std::string body = negative ? digits.substr(1) : digits;
  std::string out;
  int count = 0;
  for (auto it = body.rbegin(); it != body.rend(); ++it) {
    if (count && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  std::reverse(out.begin(), out.end());
  return negative ? "-" + out : out;
}

}  // namespace swallow::common
