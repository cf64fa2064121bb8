// Parameterized codec models for simulation.
//
// The scheduler only needs a codec's (compression speed R, compression ratio
// xi); the paper's Table II measures these for five production codecs and we
// carry those numbers verbatim so simulated results are comparable. Table III
// additionally shows that the ratio depends on flow size (small flows
// compress worse per-byte framing overhead dominates); `ratio_for_size`
// interpolates the paper's measured curve.
#pragma once

#include <string>
#include <vector>

#include "common/units.hpp"

namespace swallow::codec {

struct CodecModel {
  std::string name;
  common::Bps compress_speed;    ///< bytes/s consumed by the compressor
  common::Bps decompress_speed;  ///< bytes/s produced by the decompressor
  double ratio;                  ///< compressed/raw, e.g. LZ4 = 0.6215
};

/// Table II rows: LZ4, LZO, Snappy, LZF, Zstandard.
const std::vector<CodecModel>& table2_codecs();

/// Table II's default codec in Swallow (LZ4).
const CodecModel& default_codec_model();

/// Lookup by case-insensitive name; throws std::out_of_range if unknown.
const CodecModel& codec_model_by_name(const std::string& name);

/// Table III: compression ratio as a function of flow size (log-linear
/// interpolation between the paper's measured points; clamped outside).
double table3_ratio(common::Bytes flow_size);

/// Table III's measured sample points (size, ratio), for benches/tests.
const std::vector<std::pair<common::Bytes, double>>& table3_points();

}  // namespace swallow::codec
