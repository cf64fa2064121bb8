#include "codec/synth_data.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace swallow::codec {

using common::Rng;
using common::Zipf;

Buffer random_bytes(std::size_t n, Rng& rng) {
  Buffer out(n);
  std::size_t i = 0;
  while (i + 8 <= n) {
    const std::uint64_t v = rng.next_u64();
    std::memcpy(out.data() + i, &v, 8);
    i += 8;
  }
  for (; i < n; ++i) out[i] = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

Buffer run_bytes(std::size_t n, Rng& rng, std::size_t mean_run) {
  Buffer out;
  out.reserve(n);
  while (out.size() < n) {
    const auto len = static_cast<std::size_t>(
        1 + rng.exponential(1.0 / static_cast<double>(mean_run)));
    const auto byte = static_cast<std::uint8_t>(rng.uniform_int(0, 15));
    const std::size_t take = std::min(len, n - out.size());
    out.insert(out.end(), take, byte);
  }
  return out;
}

namespace {
/// Syllables of the pseudo-words, each padded to 4 bytes so one fixed-size
/// copy spells it; the padding lands where the next syllable or the space
/// goes.
constexpr char kSyllables[32][4] = {
    "ba", "ce", "di", "fo", "gu", "ha", "je", "ki", "lo", "mu", "na",
    "pe", "qui", "ro", "su", "ta", "ve", "wi", "xo", "yu", "za", "bre",
    "cla", "dro", "fli", "gra", "ple", "sto", "tri", "vla", "sne", "kro"};

/// The longest word a 64-bit rank spells (13 syllables of <= 3 bytes) plus
/// its space and the last copy's padding fit in this slack past the end.
constexpr std::size_t kWordSlack = 64;

std::uint8_t* spell_syllable(std::size_t v, std::uint8_t* out) {
  const char* syllable = kSyllables[v % 32];
  std::memcpy(out, syllable, 4);
  return out + (syllable[2] != '\0' ? 3 : 2);
}

/// Spells the deterministic pseudo-word for a vocabulary rank at `out` and
/// returns its end: 2+ syllables (4+ chars), like natural-language tokens,
/// so LZ77 matches span whole words.
std::uint8_t* spell_word(std::size_t rank, std::uint8_t* out) {
  std::uint8_t* const start = out;
  std::size_t v = rank;
  do {
    out = spell_syllable(v, out);
    v /= 32;
  } while (v != 0);
  if (out - start < 4) out = spell_syllable(rank, out);
  return out;
}
}  // namespace

Buffer text_bytes(std::size_t n, Rng& rng, std::size_t vocab, double zipf_s) {
  const Zipf dist(vocab, zipf_s);
  Buffer out(n + kWordSlack);
  std::uint8_t* p = out.data();
  std::uint8_t* const end = p + n;
  while (p < end) {
    p = spell_word(dist.sample(rng), p);
    *p++ = ' ';
  }
  out.resize(n);
  return out;
}

Buffer record_bytes(std::size_t n, Rng& rng, std::size_t keys,
                    std::size_t value_digits) {
  // Past 19 digits `limit` (10^value_digits) wraps a uint64_t, and from 59
  // a record no longer fits `buf`.
  if (value_digits > 19)
    throw std::invalid_argument("record_bytes: value_digits > 19");
  Buffer out;
  out.reserve(n + 32);
  char buf[64];
  while (out.size() < n) {
    const auto key = rng.uniform_int(0, keys - 1);
    std::uint64_t limit = 1;
    for (std::size_t d = 0; d < value_digits; ++d) limit *= 10;
    const auto value = rng.uniform_int(0, limit - 1);
    const int len = std::snprintf(buf, sizeof(buf), "k%02llu=%0*llu;",
                                  static_cast<unsigned long long>(key),
                                  static_cast<int>(value_digits),
                                  static_cast<unsigned long long>(value));
    out.insert(out.end(), buf, buf + len);
  }
  out.resize(n);
  return out;
}

Buffer mixed_bytes(std::size_t n, Rng& rng, double random_fraction,
                   std::size_t vocab, double zipf_s) {
  random_fraction = std::clamp(random_fraction, 0.0, 1.0);
  const auto n_random = static_cast<std::size_t>(
      static_cast<double>(n) * random_fraction);
  Buffer out = text_bytes(n - n_random, rng, vocab, zipf_s);
  // Interleave random chunks so the incompressible part is not one block
  // (matches real serialized payloads where binary fields pepper the text).
  const Buffer noise = random_bytes(n_random, rng);
  if (noise.empty()) return out;
  const std::size_t chunks = std::max<std::size_t>(1, noise.size() / 4096);
  const std::size_t chunk = noise.size() / chunks;
  std::size_t taken = 0;
  Buffer result;
  result.reserve(n);
  const std::size_t stride = out.size() / chunks + 1;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t text_lo = c * stride;
    const std::size_t text_hi = std::min(out.size(), text_lo + stride);
    if (text_lo < text_hi)
      result.insert(result.end(), out.begin() + static_cast<std::ptrdiff_t>(text_lo),
                    out.begin() + static_cast<std::ptrdiff_t>(text_hi));
    const std::size_t take =
        (c + 1 == chunks) ? noise.size() - taken : chunk;
    result.insert(result.end(), noise.begin() + static_cast<std::ptrdiff_t>(taken),
                  noise.begin() + static_cast<std::ptrdiff_t>(taken + take));
    taken += take;
  }
  result.resize(n);
  return result;
}

Buffer AppProfile::generate(std::size_t n, Rng& rng) const {
  const auto n_runs = static_cast<std::size_t>(
      static_cast<double>(n) * std::clamp(run_fraction, 0.0, 1.0));
  Buffer out = run_bytes(n_runs, rng);
  const Buffer rest =
      mixed_bytes(n - n_runs, rng, random_fraction, vocab, zipf_s);
  // Alternate run and mixed chunks so the payload is not two monolithic
  // halves (real shuffle blocks interleave record headers and values).
  Buffer result;
  result.reserve(n);
  const std::size_t chunks = 16;
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto runs_lo = n_runs * c / chunks, runs_hi = n_runs * (c + 1) / chunks;
    const auto rest_lo = rest.size() * c / chunks,
               rest_hi = rest.size() * (c + 1) / chunks;
    result.insert(result.end(), out.begin() + static_cast<std::ptrdiff_t>(runs_lo),
                  out.begin() + static_cast<std::ptrdiff_t>(runs_hi));
    result.insert(result.end(), rest.begin() + static_cast<std::ptrdiff_t>(rest_lo),
                  rest.begin() + static_cast<std::ptrdiff_t>(rest_hi));
  }
  result.resize(n);
  return result;
}

const std::vector<AppProfile>& table1_apps() {
  // paper_ratio values are Table I, verbatim. The mixture knobs are
  // calibrated against swlz-balanced; bench_table1 prints paper vs measured.
  static const std::vector<AppProfile> kApps = {
      {"Wordcount", 0.5591, 0.06, 0.00, 65536, 1.02},
      {"Sort", 0.2496, 0.62, 0.00, 1024, 1.25},
      {"Terasort", 0.2793, 0.56, 0.00, 1024, 1.25},
      {"Enhanced DFSIO", 0.1897, 0.76, 0.00, 1024, 1.2},
      {"Logistic Regression", 0.7513, 0.00, 0.37, 65536, 1.0},
      {"Latent Dirichlet Allocation", 0.6830, 0.00, 0.21, 65536, 1.0},
      {"Support Vector Machine", 0.4796, 0.21, 0.00, 16384, 1.05},
      {"Bayes", 0.2633, 0.60, 0.00, 1024, 1.25},
      {"Random Forest", 0.6830, 0.00, 0.21, 65536, 1.0},
      {"Pagerank", 0.4241, 0.30, 0.00, 8192, 1.1},
      {"NWeight", 0.2897, 0.55, 0.00, 2048, 1.2},
  };
  return kApps;
}

const AppProfile& app_by_name(const std::string& name) {
  for (const auto& app : table1_apps())
    if (app.name == name) return app;
  throw std::out_of_range("app_by_name: unknown application " + name);
}

}  // namespace swallow::codec
