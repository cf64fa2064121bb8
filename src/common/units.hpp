// Units used throughout Swallow.
//
// The fluid simulator works in double-precision bytes and seconds; bandwidth
// is bytes per second. Helpers below convert the unit conventions the paper
// mixes freely (Mbps/Gbps links, MB/s compression speeds, KB..GB flows).
#pragma once

#include <cstdint>

namespace swallow::common {

using Bytes = double;    ///< payload volume (fluid model; fractions allowed)
using Seconds = double;  ///< simulated wall-clock time
using Bps = double;      ///< bandwidth in bytes per second

inline constexpr Bytes kKB = 1024.0;
inline constexpr Bytes kMB = 1024.0 * kKB;
inline constexpr Bytes kGB = 1024.0 * kMB;
inline constexpr Bytes kTB = 1024.0 * kGB;

/// Network link speeds are quoted in decimal bits per second (IEEE style).
constexpr Bps mbps(double v) { return v * 1e6 / 8.0; }
constexpr Bps gbps(double v) { return v * 1e9 / 8.0; }

/// Compression speeds in the paper's Table II are quoted in MB/s (binary).
constexpr Bps mb_per_s(double v) { return v * kMB; }

/// Milliseconds helper: the paper's default scheduling slice is 10 ms.
constexpr Seconds ms(double v) { return v / 1000.0; }

inline constexpr Seconds kDefaultSlice = 0.010;

}  // namespace swallow::common
