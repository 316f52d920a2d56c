#include "scenario/cache.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/files.hpp"
#include "scenario/hash.hpp"

namespace adc::scenario {

namespace fs = std::filesystem;
namespace json = adc::common::json;
using adc::common::ConfigError;
using adc::common::files::file_id;
using adc::common::files::FileBytes;
using adc::common::files::is_tmp_name;
using adc::common::files::link_name;
using adc::common::files::publish;
using adc::common::files::read_file;
using adc::common::files::read_file_with_id;
using adc::common::files::write_file;
using adc::common::files::write_temp;

namespace {

bool is_hex_hash(const std::string& hash) {
  if (hash.size() != 16) return false;
  for (const char c : hash) {
    const bool ok = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f');
    if (!ok) return false;
  }
  return true;
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
    auto envelope = json::parse(pack.substr(start, end - start));
    const auto* stored_hash = envelope.find("hash");
    const auto* version = envelope.find("schema_version");
    auto* payload = envelope.find("payload");
    if (stored_hash != nullptr && stored_hash->is_string() &&
        stored_hash->as_string() == hash && version != nullptr && version->is_integer() &&
        version->as_uint64() == kScenarioSchemaVersion && payload != nullptr) {
      return std::move(*payload);
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
  try {
    fs::remove(write_temp(fs::path(root_) / ".writable", ""), ec);
  } catch (const ConfigError&) {
    throw ConfigError("scenario cache root \"" + root_ +
                      "\" is not writable (set ADC_SCENARIO_CACHE_DIR or "
                      "--cache-dir to a writable directory)");
  }
}

std::string ResultCache::entry_path(const std::string& hash) const {
  if (!is_hex_hash(hash)) throw ConfigError("ResultCache: malformed hash \"" + hash + "\"");
  return root_ + "/" + hash.substr(0, 2) + "/" + hash + ".json";
}

std::optional<json::JsonValue> ResultCache::load(const std::string& hash) {
  return std::move(load(std::span(&hash, 1)).front());
}

std::vector<std::optional<json::JsonValue>> ResultCache::load(
    std::span<const std::string> hashes) {
  std::vector<std::optional<json::JsonValue>> payloads(hashes.size());
  // The files this call has read, keyed by the identity of the descriptor
  // read: a later name with that identity is a link to the same bytes.
  std::vector<FileBytes> read;
  for (std::size_t k = 0; k < hashes.size(); ++k) {
    const std::string path = entry_path(hashes[k]);
    const FileBytes* pack = nullptr;
    if (const auto id = file_id(path)) {
      const auto seen = std::find_if(read.rbegin(), read.rend(),
                                     [&](const FileBytes& file) { return file.id == *id; });
      if (seen != read.rend()) {
        pack = &*seen;
      } else if (auto file = read_file_with_id(path)) {
        pack = &read.emplace_back(std::move(*file));
      }
    }
    if (pack == nullptr) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    payloads[k] = unpack(pack->bytes, hashes[k]);
    if (payloads[k].has_value()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // Evict only this name: sibling links into the same pack are judged on
    // their own envelopes.
    std::error_code ec;
    fs::remove(path, ec);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
  }
  return payloads;
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

  // Write the pack next to the last entry, under a temporary name, then
  // publish it under every entry name.
  create_parent(paths.back(), "ResultCache::store");
  publish(write_temp(paths.back(), pack), paths);
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

/// The bytes of the claim document for `info`.
std::string claim_text(const ClaimInfo& info) {
  return json::dump_compact(claim_document(info));
}

}  // namespace

ClaimOutcome ResultCache::try_claim(const std::string& hash, const std::string& owner,
                                    std::uint64_t now_ms, std::uint64_t lease_ms) {
  return try_claim(std::span(&hash, 1), owner, now_ms, lease_ms).front();
}

std::vector<ClaimOutcome> ResultCache::try_claim(std::span<const std::string> hashes,
                                                 const std::string& owner,
                                                 std::uint64_t now_ms, std::uint64_t lease_ms) {
  adc::common::require(!owner.empty(), "ResultCache::try_claim: empty owner id");
  // kBusy until this call holds the name.
  std::vector<ClaimOutcome> outcomes(hashes.size(), ClaimOutcome::kBusy);
  if (hashes.empty()) return outcomes;
  std::vector<fs::path> paths;
  paths.reserve(hashes.size());
  for (const auto& hash : hashes) paths.emplace_back(claim_path(hash));

  // Fast path: write one complete claim document and publish it under every
  // claim name with link(2), which fails with EEXIST where a claim is
  // already there. Exactly one of N racing owners wins each name, and no
  // racer can ever read a claim that exists but is not yet written — it
  // would parse as corrupt, count as stale, and be stolen, leaving two
  // owners.
  create_parent(paths.front(), "ResultCache::try_claim");
  const fs::path tmp = write_temp(paths.front(), claim_text({owner, now_ms}));
  std::error_code ec;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    const int err = link_name(tmp, paths[i]);
    if (err == 0) {
      outcomes[i] = ClaimOutcome::kAcquired;
    } else if (err != EEXIST) {
      // Release the partial claim: the names this call linked, then the
      // temporary.
      for (std::size_t j = 0; j < i; ++j) {
        if (outcomes[j] == ClaimOutcome::kAcquired) fs::remove(paths[j], ec);
      }
      fs::remove(tmp, ec);
      throw ConfigError("ResultCache::try_claim: cannot create " + paths[i].string() + ": " +
                        std::strerror(err));
    }
  }
  fs::remove(tmp, ec);

  // The names still kBusy were already claimed.
  for (std::size_t i = 0; i < paths.size(); ++i) {
    if (outcomes[i] == ClaimOutcome::kAcquired) continue;
    const auto existing = read_claim(hashes[i]);
    if (existing.has_value() && existing->owner == owner) {
      // Re-entrant: refresh our own heartbeat.
      write_file(paths[i], claim_text({owner, now_ms}));
      outcomes[i] = ClaimOutcome::kAcquired;
      continue;
    }
    if (existing.has_value() && now_ms < existing->heartbeat_ms + lease_ms) continue;
    // Stale (owner stopped heartbeating) or corrupt: steal by atomic
    // replace, then read back — when two stealers race, the last rename
    // wins and the read-back tells the loser. (The confirm itself can still
    // race a concurrent steal; the worst case is two owners computing the
    // same job, which produces bit-identical bytes under the same content
    // address.)
    write_file(paths[i], claim_text({owner, now_ms}));
    const auto confirmed = read_claim(hashes[i]);
    if (confirmed.has_value() && confirmed->owner == owner) {
      outcomes[i] = ClaimOutcome::kAcquired;
    }
  }
  return outcomes;
}

bool ResultCache::link_claim(const std::string& source, const std::string& hash) {
  return link_name(claim_path(source), claim_path(hash)) == 0;
}

bool ResultCache::refresh_claim(const std::string& hash, const std::string& owner,
                                std::uint64_t now_ms) {
  return refresh_claim(std::span(&hash, 1), owner, now_ms) == 1;
}

std::size_t ResultCache::refresh_claim(std::span<const std::string> hashes,
                                       const std::string& owner, std::uint64_t now_ms) {
  std::vector<fs::path> held;
  for (const auto& hash : hashes) {
    const auto existing = read_claim(hash);
    if (existing.has_value() && existing->owner == owner) held.emplace_back(claim_path(hash));
  }
  if (held.empty()) return 0;
  publish(write_temp(held.front(), claim_text({owner, now_ms})), held);
  return held.size();
}

void ResultCache::release_claim(const std::string& hash, const std::string& owner) {
  release_claim(std::span(&hash, 1), owner);
}

void ResultCache::release_claim(std::span<const std::string> hashes, const std::string& owner) {
  std::error_code ec;
  for (const auto& hash : hashes) {
    const auto existing = read_claim(hash);
    if (existing.has_value() && existing->owner == owner) fs::remove(claim_path(hash), ec);
  }
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
