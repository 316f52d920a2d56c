#include "scenario/cache.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
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
  adc::common::require(is_hex_hash(hash),
                       "ResultCache: malformed hash \"" + hash + "\"");
  return root_ + "/" + hash.substr(0, 2) + "/" + hash + ".json";
}

std::optional<json::JsonValue> ResultCache::load(const std::string& hash) {
  const fs::path path = entry_path(hash);
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  in.close();

  // Validate the envelope; anything unexpected evicts the entry.
  try {
    const auto envelope = json::parse(buffer.str());
    const auto* stored_hash = envelope.find("hash");
    const auto* version = envelope.find("schema_version");
    const auto* payload = envelope.find("payload");
    if (stored_hash != nullptr && stored_hash->is_string() &&
        stored_hash->as_string() == hash && version != nullptr && version->is_integer() &&
        version->as_uint64() == kScenarioSchemaVersion && payload != nullptr) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return *payload;
    }
  } catch (const ConfigError&) {
    // Fall through to eviction.
  }
  std::error_code ec;
  fs::remove(path, ec);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  misses_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void ResultCache::store(const std::string& hash, const json::JsonValue& payload) {
  auto envelope = json::JsonValue::object();
  envelope.set("hash", hash);
  envelope.set("schema_version", kScenarioSchemaVersion);
  envelope.set("payload", payload);
  const std::string text = json::dump(envelope);

  const fs::path path = entry_path(hash);
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  adc::common::require(!ec, "ResultCache::store: cannot create " +
                                path.parent_path().string() + ": " + ec.message());

  const fs::path tmp = path.string() + unique_tmp_suffix();
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    adc::common::require(out.good(), "ResultCache::store: cannot open " + tmp.string());
    out << text;
    out.flush();
    adc::common::require(out.good(), "ResultCache::store: write failed for " + tmp.string());
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    throw ConfigError("ResultCache::store: rename failed for " + path.string());
  }
  stores_.fetch_add(1, std::memory_order_relaxed);
}

CacheStats ResultCache::stats() const {
  CacheStats stats;
  walk_cache(root_, [&](const fs::directory_entry& entry) {
    std::error_code ec;
    const std::string name = entry.path().filename().string();
    if (is_tmp_name(name)) {
      ++stats.tmp_files;
    } else if (entry.path().extension() == ".claim") {
      ++stats.claim_files;
    } else if (entry.path().extension() == ".json") {
      ++stats.entries;
      stats.bytes += entry.file_size(ec);
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
  adc::common::require(is_hex_hash(hash),
                       "ResultCache: malformed hash \"" + hash + "\"");
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
  adc::common::require(out.good(), "ResultCache: cannot open claim temp " + tmp.string());
  out << text;
  out.flush();
  adc::common::require(out.good(), "ResultCache: claim write failed for " + tmp.string());
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
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  adc::common::require(!ec, "ResultCache::try_claim: cannot create " +
                               path.parent_path().string() + ": " + ec.message());

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
  std::ifstream in(claim_path(hash), std::ios::binary);
  if (!in.good()) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_claim(buffer.str());
}

std::vector<ClaimRecord> ResultCache::claims() const {
  std::vector<ClaimRecord> records;
  walk_cache(root_, [&](const fs::directory_entry& entry) {
    if (entry.path().extension() != ".claim") return;
    const std::string stem = entry.path().stem().string();
    if (!is_hex_hash(stem)) return;
    std::ifstream in(entry.path(), std::ios::binary);
    if (!in.good()) return;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const auto info = parse_claim(buffer.str());
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
    std::ifstream in(entry.path(), std::ios::binary);
    if (!in.good()) return;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const auto info = parse_claim(buffer.str());
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
