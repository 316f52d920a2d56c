#include "scenario/cache.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "scenario/hash.hpp"

namespace adc::scenario {

namespace fs = std::filesystem;
namespace json = adc::common::json;
using adc::common::ConfigError;

namespace {

bool is_hex_hash(const std::string& hash) {
  if (hash.size() != 16) return false;
  for (const char c : hash) {
    const bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!ok) return false;
  }
  return true;
}

/// Fleet-unique suffix for temporary files: pid + per-process counter, so
/// two concurrent stores of the same hash (same payload by construction)
/// never interleave writes, whether the writers are threads or separate
/// worker processes sharing the cache directory.
std::string unique_tmp_suffix() {
  static std::atomic<std::uint64_t> counter{0};
  return ".tmp" + std::to_string(static_cast<long>(::getpid())) + "_" +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));
}

/// True when the file name marks a store temporary (`<hash>.json.tmpN` or
/// the ensure_writable probe).
bool is_tmp_name(const std::string& name) {
  return name.find(".tmp") != std::string::npos;
}

/// Directory walk shared by stats/clear/claims: visits every regular file
/// under the root except the `fleet/` subtree, where shard manifests live —
/// they are fleet bookkeeping, not cache content.
template <typename Visit>
void walk_cache(const std::string& root, Visit&& visit) {
  std::error_code ec;
  if (!fs::is_directory(root, ec)) return;
  for (fs::recursive_directory_iterator it(root, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it.depth() == 0 && it->is_directory(ec) &&
        it->path().filename() == "fleet") {
      it.disable_recursion_pending();
      continue;
    }
    if (!it->is_regular_file(ec)) continue;
    visit(*it);
  }
}

/// Create the directory holding `path` (a `<root>/<xx>/` fan-out directory);
/// `caller` prefixes the error.
void create_parent(const fs::path& path, const char* caller) {
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  if (ec) {
    throw ConfigError(std::string(caller) + ": cannot create " +
                      path.parent_path().string() + ": " + ec.message());
  }
}

/// The whole file at `path`, read with one read sized by fstat; nullopt
/// when it cannot be opened. A short read keeps the bytes it got, which
/// then fail validation.
std::optional<std::string> read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  std::string text;
  struct stat st {};
  if (::fstat(fd, &st) == 0) text.resize(static_cast<std::size_t>(st.st_size));
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t n = ::read(fd, text.data() + done, text.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    done += static_cast<std::size_t>(n);
  }
  ::close(fd);
  text.resize(done);
  return text;
}

/// The opening of the envelope `json::dump` writes for a hash, up to the
/// hash's closing quote; `hash` must be a validated 16-digit hash.
constexpr std::string_view kHeaderOpen = "{\n  \"hash\": \"";
/// Every envelope ends with the root object's closing brace on its own line.
constexpr std::string_view kEnvelopeClose = "\n}\n";
/// A pack of several envelopes wraps them in a JSON object, each envelope's
/// bytes unchanged: `{"pack": [\n<envelope>,\n<envelope>]}\n`. The whole
/// file stays one JSON document; a one-entry pack is the bare envelope.
constexpr std::string_view kPackOpen = "{\"pack\": [\n";
constexpr std::string_view kPackSeparator = ",\n";
constexpr std::string_view kPackClose = "]}\n";
/// How an intact wrapped pack ends: its last envelope, then kPackClose.
constexpr std::string_view kPackTail = "\n}\n]}\n";

/// The payload of `hash`'s envelope in `pack` (a bare envelope or a wrapped
/// pack); nullopt when the pack is torn, holds no envelope for `hash`, or
/// that envelope is invalid.
std::optional<json::JsonValue> unpack(std::string_view pack, const std::string& hash) {
  if (!pack.ends_with(pack.starts_with(kPackOpen) ? kPackTail : kEnvelopeClose)) {
    return std::nullopt;
  }
  char header[kHeaderOpen.size() + 17];
  std::memcpy(header, kHeaderOpen.data(), kHeaderOpen.size());
  std::memcpy(header + kHeaderOpen.size(), hash.data(), 16);
  header[sizeof header - 1] = '"';
  // Only an envelope's root object opens a line with this header: payload
  // objects are indented and strings hold no raw newlines.
  std::size_t start = 0;
  for (std::size_t from = 0;; from = start + 1) {
    const void* hit = ::memmem(pack.data() + from, pack.size() - from, header, sizeof header);
    if (hit == nullptr) return std::nullopt;
    start = static_cast<std::size_t>(static_cast<const char*>(hit) - pack.data());
    if (start == 0 || pack[start - 1] == '\n') break;
  }
  const std::size_t close = pack.find(kEnvelopeClose, start);
  if (close == std::string_view::npos) return std::nullopt;
  const std::size_t end = close + kEnvelopeClose.size();
  try {
    const auto envelope = json::parse(pack.substr(start, end - start));
    const auto* stored_hash = envelope.find("hash");
    const auto* version = envelope.find("schema_version");
    const auto* payload = envelope.find("payload");
    if (stored_hash != nullptr && stored_hash->is_string() &&
        stored_hash->as_string() == hash && version != nullptr && version->is_integer() &&
        version->as_uint64() == kScenarioSchemaVersion && payload != nullptr) {
      return *payload;
    }
  } catch (const ConfigError&) {
    // Invalid envelope.
  }
  return std::nullopt;
}

}  // namespace

ResultCache::ResultCache(std::string root) : root_(std::move(root)) {
  if (root_.empty()) root_ = default_root();
}

std::string ResultCache::default_root() {
  const char* env = std::getenv("ADC_SCENARIO_CACHE_DIR");
  if (env != nullptr && *env != '\0') return env;
  return ".adc-cache";
}

void ResultCache::ensure_writable() const {
  std::error_code ec;
  fs::create_directories(root_, ec);
  if (ec) {
    throw ConfigError("scenario cache root \"" + root_ +
                      "\" cannot be created: " + ec.message());
  }
  if (!fs::is_directory(root_, ec)) {
    throw ConfigError("scenario cache root \"" + root_ +
                      "\" is not a directory (set ADC_SCENARIO_CACHE_DIR or "
                      "--cache-dir to a writable directory)");
  }
  const fs::path probe = fs::path(root_) / (".writable" + unique_tmp_suffix());
  {
    std::ofstream out(probe, std::ios::binary | std::ios::trunc);
    if (!out.good()) {
      throw ConfigError("scenario cache root \"" + root_ +
                        "\" is not writable (set ADC_SCENARIO_CACHE_DIR or "
                        "--cache-dir to a writable directory)");
    }
  }
  fs::remove(probe, ec);
}

std::string ResultCache::entry_path(const std::string& hash) const {
  if (!is_hex_hash(hash)) throw ConfigError("ResultCache: malformed hash \"" + hash + "\"");
  return root_ + "/" + hash.substr(0, 2) + "/" + hash + ".json";
}

std::optional<json::JsonValue> ResultCache::load(const std::string& hash) {
  const std::string path = entry_path(hash);
  const auto text = read_file(path);
  if (!text.has_value()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  if (auto payload = unpack(*text, hash)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return payload;
  }
  // Evict only this name: sibling links into the same pack evict on their
  // own loads.
  std::error_code ec;
  fs::remove(path, ec);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  misses_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void ResultCache::store(const std::string& hash, const json::JsonValue& payload) {
  const CacheEntry entry{hash, payload};
  store(std::span<const CacheEntry>(&entry, 1));
}

void ResultCache::store(std::span<const CacheEntry> entries) {
  if (entries.empty()) return;
  const bool wrapped = entries.size() > 1;
  std::string pack(wrapped ? kPackOpen : "");
  std::vector<fs::path> paths;
  paths.reserve(entries.size());
  for (const CacheEntry& entry : entries) {
    auto envelope = json::JsonValue::object();
    envelope.set("hash", entry.hash);
    envelope.set("schema_version", kScenarioSchemaVersion);
    envelope.set("payload", entry.payload);
    if (!paths.empty()) pack += kPackSeparator;
    pack += json::dump(envelope);
    paths.push_back(entry_path(entry.hash));
  }
  if (wrapped) pack += kPackClose;

  // Write the pack next to the last entry, under a temporary name.
  create_parent(paths.back(), "ResultCache::store");
  const fs::path pack_tmp = paths.back().string() + unique_tmp_suffix();
  {
    std::ofstream out(pack_tmp, std::ios::binary | std::ios::trunc);
    if (!out.good()) throw ConfigError("ResultCache::store: cannot open " + pack_tmp.string());
    out << pack;
    out.flush();
    if (!out.good()) {
      throw ConfigError("ResultCache::store: write failed for " + pack_tmp.string());
    }
  }

  // Publish: each name but the last gets its own link through a fresh
  // temporary renamed over it; the last name takes the pack's temporary.
  std::error_code ec;
  for (std::size_t i = 0; i + 1 < paths.size(); ++i) {
    create_parent(paths[i], "ResultCache::store");
    const fs::path tmp = paths[i].string() + unique_tmp_suffix();
    if (::link(pack_tmp.c_str(), tmp.c_str()) != 0) {
      const int link_errno = errno;
      fs::remove(pack_tmp, ec);
      throw ConfigError("ResultCache::store: cannot link " + tmp.string() + ": " +
                        std::strerror(link_errno));
    }
    fs::rename(tmp, paths[i], ec);
    if (ec) {
      fs::remove(tmp, ec);
      fs::remove(pack_tmp, ec);
      throw ConfigError("ResultCache::store: rename failed for " + paths[i].string());
    }
  }
  fs::rename(pack_tmp, paths.back(), ec);
  if (ec) {
    fs::remove(pack_tmp, ec);
    throw ConfigError("ResultCache::store: rename failed for " + paths.back().string());
  }
  stores_.fetch_add(entries.size(), std::memory_order_relaxed);
}

CacheStats ResultCache::stats() const {
  CacheStats stats;
  // Names linked to one pack share its inode: count its bytes once.
  std::set<std::pair<dev_t, ino_t>> packs;
  walk_cache(root_, [&](const fs::directory_entry& entry) {
    const std::string name = entry.path().filename().string();
    if (is_tmp_name(name)) {
      ++stats.tmp_files;
    } else if (entry.path().extension() == ".claim") {
      ++stats.claim_files;
    } else if (entry.path().extension() == ".json") {
      ++stats.entries;
      struct stat st {};
      if (::stat(entry.path().c_str(), &st) != 0) return;
      if (st.st_nlink > 1 && !packs.emplace(st.st_dev, st.st_ino).second) return;
      stats.bytes += static_cast<std::uint64_t>(st.st_size);
    }
  });
  return stats;
}

json::JsonValue ResultCache::stats_document() const {
  const CacheStats disk = stats();
  auto session = json::JsonValue::object();
  session.set("hits", hits());
  session.set("misses", misses());
  session.set("evictions", evictions());
  session.set("stores", stores());
  auto doc = json::JsonValue::object();
  doc.set("cache_dir", root_);
  doc.set("entries", disk.entries);
  doc.set("bytes", disk.bytes);
  doc.set("tmp_files", disk.tmp_files);
  doc.set("claim_files", disk.claim_files);
  doc.set("session", std::move(session));
  return doc;
}

std::uint64_t ResultCache::clear() {
  std::uint64_t removed = 0;
  std::error_code ec;
  std::vector<fs::path> victims;
  walk_cache(root_, [&](const fs::directory_entry& entry) {
    const auto ext = entry.path().extension().string();
    const std::string name = entry.path().filename().string();
    if (ext == ".json" || ext == ".claim" || is_tmp_name(name)) {
      victims.push_back(entry.path());
    }
  });
  for (const auto& path : victims) {
    if (path.extension() == ".json" && !is_tmp_name(path.filename().string())) {
      ++removed;
    }
    fs::remove(path, ec);
  }
  return removed;
}

// ---------------------------------------------------------------------------
// Claim / lease protocol

std::string ResultCache::claim_path(const std::string& hash) const {
  if (!is_hex_hash(hash)) throw ConfigError("ResultCache: malformed hash \"" + hash + "\"");
  return root_ + "/" + hash.substr(0, 2) + "/" + hash + ".claim";
}

namespace {

json::JsonValue claim_document(const ClaimInfo& info) {
  auto doc = json::JsonValue::object();
  doc.set("owner", info.owner);
  doc.set("heartbeat_ms", info.heartbeat_ms);
  return doc;
}

std::optional<ClaimInfo> parse_claim(const std::string& text) {
  try {
    const auto doc = json::parse(text);
    const auto* owner = doc.find("owner");
    const auto* heartbeat = doc.find("heartbeat_ms");
    if (owner == nullptr || !owner->is_string() || owner->as_string().empty() ||
        heartbeat == nullptr || !heartbeat->is_integer()) {
      return std::nullopt;
    }
    return ClaimInfo{owner->as_string(), heartbeat->as_uint64()};
  } catch (const ConfigError&) {
    return std::nullopt;
  }
}

/// Write the claim document for `info` to a fresh pid-unique temporary next
/// to the claim path `path`, and return the temporary's path.
fs::path write_claim_temp(const fs::path& path, const ClaimInfo& info) {
  const fs::path tmp = path.string() + unique_tmp_suffix();
  const std::string text = json::dump_compact(claim_document(info));
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  if (!out.good()) throw ConfigError("ResultCache: cannot open claim temp " + tmp.string());
  out << text;
  out.flush();
  if (!out.good()) throw ConfigError("ResultCache: claim write failed for " + tmp.string());
  return tmp;
}

}  // namespace

void ResultCache::write_claim(const std::string& hash, const ClaimInfo& info) {
  const fs::path path = claim_path(hash);
  const fs::path tmp = write_claim_temp(path, info);
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    throw ConfigError("ResultCache: claim rename failed for " + path.string());
  }
}

ClaimOutcome ResultCache::try_claim(const std::string& hash, const std::string& owner,
                                    std::uint64_t now_ms, std::uint64_t lease_ms) {
  adc::common::require(!owner.empty(), "ResultCache::try_claim: empty owner id");
  const fs::path path = claim_path(hash);
  create_parent(path, "ResultCache::try_claim");
  std::error_code ec;

  // Fast path: publish a complete claim document under the claim name with
  // link(2), which fails with EEXIST when any claim is already there.
  // Exactly one of N racing owners wins, and no racer can ever read a claim
  // that exists but is not yet written — it would parse as corrupt, count
  // as stale, and be stolen, leaving two owners.
  const fs::path tmp = write_claim_temp(path, {owner, now_ms});
  const int linked = ::link(tmp.c_str(), path.c_str());
  const int link_errno = errno;
  fs::remove(tmp, ec);
  if (linked == 0) return ClaimOutcome::kAcquired;
  if (link_errno != EEXIST) {
    throw ConfigError("ResultCache::try_claim: cannot create " + path.string() + ": " +
                      std::strerror(link_errno));
  }

  const auto existing = read_claim(hash);
  if (existing.has_value() && existing->owner == owner) {
    // Re-entrant: refresh our own heartbeat.
    write_claim(hash, {owner, now_ms});
    return ClaimOutcome::kAcquired;
  }
  if (existing.has_value() && now_ms < existing->heartbeat_ms + lease_ms) {
    return ClaimOutcome::kBusy;
  }
  // Stale (owner stopped heartbeating) or corrupt: steal by atomic replace,
  // then read back — when two stealers race, the last rename wins and the
  // read-back tells the loser. (The confirm itself can still race a
  // concurrent steal; the worst case is two owners computing the same job,
  // which produces bit-identical bytes under the same content address.)
  write_claim(hash, {owner, now_ms});
  const auto confirmed = read_claim(hash);
  return confirmed.has_value() && confirmed->owner == owner ? ClaimOutcome::kAcquired
                                                            : ClaimOutcome::kBusy;
}

bool ResultCache::refresh_claim(const std::string& hash, const std::string& owner,
                                std::uint64_t now_ms) {
  const auto existing = read_claim(hash);
  if (!existing.has_value() || existing->owner != owner) return false;
  write_claim(hash, {owner, now_ms});
  return true;
}

void ResultCache::release_claim(const std::string& hash, const std::string& owner) {
  const auto existing = read_claim(hash);
  if (!existing.has_value() || existing->owner != owner) return;
  std::error_code ec;
  fs::remove(claim_path(hash), ec);
}

std::optional<ClaimInfo> ResultCache::read_claim(const std::string& hash) const {
  const auto text = read_file(claim_path(hash));
  if (!text.has_value()) return std::nullopt;
  return parse_claim(*text);
}

std::vector<ClaimRecord> ResultCache::claims() const {
  std::vector<ClaimRecord> records;
  walk_cache(root_, [&](const fs::directory_entry& entry) {
    if (entry.path().extension() != ".claim") return;
    const std::string stem = entry.path().stem().string();
    if (!is_hex_hash(stem)) return;
    const auto text = read_file(entry.path());
    if (!text.has_value()) return;
    const auto info = parse_claim(*text);
    // A corrupt claim still occupies the slot; report it with an empty
    // owner so `adc_fleet status` surfaces it as reclaimable.
    records.push_back({stem, info.value_or(ClaimInfo{})});
  });
  std::sort(records.begin(), records.end(),
            [](const ClaimRecord& a, const ClaimRecord& b) { return a.hash < b.hash; });
  return records;
}

StaleSweep ResultCache::clear_stale(std::uint64_t now_ms, std::uint64_t lease_ms) {
  StaleSweep sweep;
  std::error_code ec;
  std::vector<fs::path> victims;
  std::uint64_t tmp_count = 0;
  walk_cache(root_, [&](const fs::directory_entry& entry) {
    const std::string name = entry.path().filename().string();
    if (is_tmp_name(name)) {
      victims.push_back(entry.path());
      ++tmp_count;
      return;
    }
    if (entry.path().extension() != ".claim") return;
    const auto text = read_file(entry.path());
    if (!text.has_value()) return;
    const auto info = parse_claim(*text);
    // Corrupt claims are stale by definition; live ones survive the sweep.
    if (!info.has_value() || now_ms >= info->heartbeat_ms + lease_ms) {
      victims.push_back(entry.path());
    }
  });
  sweep.tmp_removed = tmp_count;
  sweep.claims_removed = victims.size() - tmp_count;
  for (const auto& path : victims) fs::remove(path, ec);
  return sweep;
}

}  // namespace adc::scenario
