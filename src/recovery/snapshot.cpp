#include "recovery/snapshot.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "codec/checksum.hpp"

namespace swallow::recovery {

namespace fs = std::filesystem;

namespace {

constexpr std::uint8_t kMagic[4] = {'S', 'W', 'S', 'N'};
constexpr std::size_t kHeaderSize = 4 + 8 + 4 + 8;  // magic|seq|version|fpr
constexpr std::size_t kVersionOffset = 4 + 8;
constexpr std::size_t kChecksumSize = 8;

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f)
    throw RecoveryError("snapshot: cannot open '" + path +
                        "': " + std::strerror(errno));
  std::vector<std::uint8_t> data;
  std::uint8_t chunk[64 * 1024];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0)
    data.insert(data.end(), chunk, chunk + n);
  std::fclose(f);
  return data;
}

bool is_snapshot_name(const std::string& name) {
  return name.starts_with("snap-") && name.ends_with(".swsnap");
}

/// Deletes every published snapshot older than the newest one that
/// precedes `published`, leaving `published` and one fallback. A failed
/// delete only leaves an extra file behind, so errors are ignored.
void prune_older(const fs::path& dir, const std::string& published) {
  std::error_code ec;
  std::vector<std::string> older;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    // Names embed a zero-padded seq, so name order is seq order.
    std::string name = entry.path().filename().string();
    if (is_snapshot_name(name) && name < published)
      older.push_back(std::move(name));
  }
  if (older.size() < 2) return;
  std::sort(older.begin(), older.end());
  older.pop_back();  // the fallback
  for (const std::string& name : older) fs::remove(dir / name, ec);
}

}  // namespace

Fingerprint& Fingerprint::mix(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ull;
  }
  return *this;
}

Fingerprint& Fingerprint::mix(double v) {
  return mix(std::bit_cast<std::uint64_t>(v));
}

Fingerprint& Fingerprint::mix(const std::string& s) {
  mix(static_cast<std::uint64_t>(s.size()));
  for (unsigned char c : s) {
    h_ ^= c;
    h_ *= 1099511628211ull;
  }
  return *this;
}

std::string snapshot_path(const std::string& dir, std::uint64_t seq) {
  char name[64];
  std::snprintf(name, sizeof name, "snap-%012llu.swsnap",
                static_cast<unsigned long long>(seq));
  return (fs::path(dir) / name).string();
}

void begin_snapshot(StateWriter& image, const SnapshotMeta& meta) {
  image.clear();
  image.bytes(kMagic);
  image.u64(meta.seq);
  image.u32(meta.version);
  image.u64(meta.fingerprint);
}

void write_snapshot(const std::string& dir, StateWriter& image,
                    const std::function<void()>& crash_hook) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec)
    throw RecoveryError("snapshot: cannot create directory '" + dir +
                        "': " + ec.message());

  const std::uint64_t seq = [&] {
    StateReader header(image.buffer());
    header.u32();  // magic
    return header.u64();
  }();
  image.u64(codec::checksum64(image.buffer()));

  const std::string final_path = snapshot_path(dir, seq);
  const std::string tmp_path = final_path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (!f)
    throw RecoveryError("snapshot: cannot create '" + tmp_path +
                        "': " + std::strerror(errno));
  const auto bytes = image.buffer();
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  // fclose flushes the stdio buffer, and some filesystems report a failed
  // write (EIO, ENOSPC, EDQUOT) only at close: such a file is short and
  // must never be published.
  const bool closed = std::fclose(f) == 0;
  if (!wrote || !closed)
    throw RecoveryError("snapshot: write to '" + tmp_path +
                        "' failed: " + std::strerror(errno));

  if (crash_hook) crash_hook();

  fs::rename(tmp_path, final_path, ec);
  if (ec)
    throw RecoveryError("snapshot: cannot publish '" + final_path +
                        "': " + ec.message());
  prune_older(dir, fs::path(final_path).filename().string());
}

LoadedSnapshot read_snapshot(const std::string& path,
                             std::uint64_t expected_fingerprint) {
  const std::vector<std::uint8_t> data = read_file(path);
  if (data.size() < kHeaderSize)
    throw RecoveryError("snapshot: '" + path + "' truncated before header",
                        data.size());
  StateReader r(data);
  for (int i = 0; i < 4; ++i)
    if (r.u8() != kMagic[i])
      throw RecoveryError("snapshot: '" + path + "' has bad magic", 0);

  LoadedSnapshot snap;
  snap.meta.seq = r.u64();
  snap.meta.version = r.u32();
  snap.meta.fingerprint = r.u64();
  if (snap.meta.version != kSnapshotVersion)
    throw RecoveryError("snapshot: '" + path + "' is format version " +
                            std::to_string(snap.meta.version) +
                            ", this build reads version " +
                            std::to_string(kSnapshotVersion),
                        kVersionOffset);
  if (expected_fingerprint != 0 &&
      snap.meta.fingerprint != expected_fingerprint)
    throw RecoveryError(
        "snapshot: '" + path +
            "' was taken under a different configuration/trace "
            "(fingerprint mismatch)",
        kVersionOffset + 4);
  if (data.size() < kHeaderSize + kChecksumSize)
    throw RecoveryError("snapshot: '" + path + "' truncated before checksum",
                        data.size());

  const std::span<const std::uint8_t> bytes(data);
  const std::size_t body = data.size() - kChecksumSize;
  if (StateReader(bytes.subspan(body)).u64() !=
      codec::checksum64(bytes.first(body)))
    throw RecoveryError("snapshot: '" + path +
                            "' fails its checksum (torn, truncated or "
                            "corrupted)",
                        body);
  snap.payload.assign(data.begin() + kHeaderSize, data.begin() + body);
  return snap;
}

std::optional<LoadedSnapshot> load_latest_snapshot(
    const std::string& dir, std::uint64_t expected_fingerprint) {
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return std::nullopt;

  std::vector<std::string> candidates;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    if (is_snapshot_name(entry.path().filename().string()))
      candidates.push_back(entry.path().string());
  }
  // Names embed zero-padded seq, so lexicographic descending = newest
  // first.
  std::sort(candidates.rbegin(), candidates.rend());
  for (const std::string& path : candidates) {
    try {
      return read_snapshot(path, expected_fingerprint);
    } catch (const RecoveryError&) {
      // Torn/corrupt/mismatched snapshot: fall back to the next-newest.
      continue;
    }
  }
  return std::nullopt;
}

}  // namespace swallow::recovery
