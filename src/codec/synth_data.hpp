// Synthetic shuffle-payload generators.
//
// The paper's Table I measures the compressibility of intermediate shuffle
// data for 11 HiBench applications (ratios 18.97%..75.13%). We cannot ship
// HiBench outputs, so each application gets a synthetic generator whose
// statistical structure (token repetition, numeric records, random payload
// fraction) is tuned to land near the paper's measured ratio under a real
// LZ codec. Tests assert the ordering and coarse bands, not exact bytes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "codec/codec.hpp"
#include "common/rng.hpp"

namespace swallow::codec {

/// Uniformly random bytes: essentially incompressible.
Buffer random_bytes(std::size_t n, common::Rng& rng);

/// Long runs of repeated bytes: extremely compressible (RLE-friendly).
Buffer run_bytes(std::size_t n, common::Rng& rng, std::size_t mean_run = 64);

/// Space-separated words drawn from a Zipf-distributed vocabulary; models
/// text shuffles (Wordcount, Pagerank URLs...). Smaller vocab / heavier skew
/// => more repetition => better ratio.
Buffer text_bytes(std::size_t n, common::Rng& rng, std::size_t vocab = 4096,
                  double zipf_s = 1.1);

/// Key=value records with a fixed small key set and random numeric values;
/// models serialized feature vectors (ML workloads). Throws
/// std::invalid_argument when value_digits > 19.
Buffer record_bytes(std::size_t n, common::Rng& rng, std::size_t keys = 32,
                    std::size_t value_digits = 8);

/// Mixture: `random_fraction` of the payload is incompressible, the rest is
/// text-like. The main calibration knob for per-app profiles.
Buffer mixed_bytes(std::size_t n, common::Rng& rng, double random_fraction,
                   std::size_t vocab = 4096, double zipf_s = 1.1);

/// One Table I application profile. The payload is a three-way mixture:
/// `run_fraction` of run-dominated bytes (sorted/serialized records share
/// long prefixes), `random_fraction` of incompressible bytes (hashes,
/// floats), and text for the remainder. The knobs are calibrated so the
/// measured swlz-balanced ratio lands near the paper's Table I column.
struct AppProfile {
  std::string name;          ///< HiBench application name
  double paper_ratio;        ///< Table I compressed/uncompressed
  double run_fraction;       ///< run-dominated share
  double random_fraction;    ///< incompressible share
  std::size_t vocab;         ///< text vocabulary size
  double zipf_s;             ///< vocabulary skew

  /// Generates `n` bytes of this application's shuffle payload.
  Buffer generate(std::size_t n, common::Rng& rng) const;
};

/// The 11 applications of Table I with their paper-measured ratios.
const std::vector<AppProfile>& table1_apps();

const AppProfile& app_by_name(const std::string& name);

}  // namespace swallow::codec
