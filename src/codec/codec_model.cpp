#include "codec/codec_model.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

namespace swallow::codec {

using common::Bytes;
using common::kGB;
using common::kKB;
using common::kMB;
using common::mb_per_s;

const std::vector<CodecModel>& table2_codecs() {
  // Paper Table II, verbatim.
  static const std::vector<CodecModel> kModels = {
      {"LZ4", mb_per_s(785), mb_per_s(2601), 0.6215},
      {"LZO", mb_per_s(424), mb_per_s(560), 0.5030},
      {"Snappy", mb_per_s(327), mb_per_s(1075), 0.4819},
      {"LZF", mb_per_s(251), mb_per_s(565), 0.4814},
      {"Zstandard", mb_per_s(330), mb_per_s(930), 0.3477},
  };
  return kModels;
}

const CodecModel& default_codec_model() { return table2_codecs().front(); }

const CodecModel& codec_model_by_name(const std::string& name) {
  auto lower = [](std::string s) {
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return s;
  };
  const std::string want = lower(name);
  for (const auto& model : table2_codecs())
    if (lower(model.name) == want) return model;
  throw std::out_of_range("codec_model_by_name: unknown codec " + name);
}

const std::vector<std::pair<Bytes, double>>& table3_points() {
  // Paper Table III (Sort application), verbatim.
  static const std::vector<std::pair<Bytes, double>> kPoints = {
      {10 * kKB, 0.6646},  {50 * kKB, 0.5870},  {100 * kKB, 0.5629},
      {1 * kMB, 0.4124},   {10 * kMB, 0.2744},  {100 * kMB, 0.2533},
      {1 * kGB, 0.2511},   {10 * kGB, 0.2507},
  };
  return kPoints;
}

double table3_ratio(Bytes flow_size) {
  const auto& pts = table3_points();
  if (flow_size <= pts.front().first) return pts.front().second;
  if (flow_size >= pts.back().first) return pts.back().second;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    if (flow_size <= pts[i].first) {
      // Interpolate linearly in log-size space: the measured curve is close
      // to straight between adjacent decade points on a log axis.
      const double x0 = std::log(pts[i - 1].first);
      const double x1 = std::log(pts[i].first);
      const double t = (std::log(flow_size) - x0) / (x1 - x0);
      return pts[i - 1].second +
             t * (pts[i].second - pts[i - 1].second);
    }
  }
  return pts.back().second;
}

}  // namespace swallow::codec
