#include "fleet/manifest.hpp"

#include <filesystem>

#include "common/error.hpp"
#include "common/files.hpp"

namespace adc::fleet {

namespace fs = std::filesystem;
namespace json = adc::common::json;

namespace {

std::uint64_t field_u64(const json::JsonValue& doc, const std::string& key) {
  const auto* value = doc.find(key);
  adc::common::require(value != nullptr && value->is_integer(),
                       "fleet manifest: missing integer field \"" + key + "\"");
  return value->as_uint64();
}

std::string field_string(const json::JsonValue& doc, const std::string& key) {
  const auto* value = doc.find(key);
  adc::common::require(value != nullptr && value->is_string(),
                       "fleet manifest: missing string field \"" + key + "\"");
  return value->as_string();
}

}  // namespace

json::JsonValue manifest_document(const ShardManifest& m) {
  auto doc = json::JsonValue::object();
  doc.set("scenario", m.scenario);
  doc.set("spec_hash", m.spec_hash);
  doc.set("fingerprint", m.fingerprint);
  doc.set("shard", static_cast<std::uint64_t>(m.shard));
  doc.set("shards", static_cast<std::uint64_t>(m.shards));
  doc.set("owner", m.owner);
  doc.set("jobs_total", static_cast<std::uint64_t>(m.jobs_total));
  doc.set("shard_jobs", static_cast<std::uint64_t>(m.shard_jobs));
  doc.set("cache_hits", static_cast<std::uint64_t>(m.cache_hits));
  doc.set("computed", static_cast<std::uint64_t>(m.computed));
  doc.set("scavenged", static_cast<std::uint64_t>(m.scavenged));
  doc.set("elsewhere", static_cast<std::uint64_t>(m.elsewhere));
  doc.set("skipped", static_cast<std::uint64_t>(m.skipped));
  doc.set("pool_jobs", m.pool_jobs);
  doc.set("complete", m.complete);
  return doc;
}

ShardManifest parse_manifest(const json::JsonValue& doc) {
  adc::common::require(doc.is_object(), "fleet manifest: document is not an object");
  ShardManifest m;
  m.scenario = field_string(doc, "scenario");
  m.spec_hash = field_string(doc, "spec_hash");
  m.fingerprint = field_string(doc, "fingerprint");
  m.shard = static_cast<unsigned>(field_u64(doc, "shard"));
  m.shards = static_cast<unsigned>(field_u64(doc, "shards"));
  m.owner = field_string(doc, "owner");
  m.jobs_total = field_u64(doc, "jobs_total");
  m.shard_jobs = field_u64(doc, "shard_jobs");
  m.cache_hits = field_u64(doc, "cache_hits");
  m.computed = field_u64(doc, "computed");
  m.scavenged = field_u64(doc, "scavenged");
  m.elsewhere = field_u64(doc, "elsewhere");
  m.skipped = field_u64(doc, "skipped");
  m.pool_jobs = field_u64(doc, "pool_jobs");
  const auto* complete = doc.find("complete");
  adc::common::require(complete != nullptr && complete->is_bool(),
                       "fleet manifest: missing bool field \"complete\"");
  m.complete = complete->as_bool();
  adc::common::require(m.shards != 0 && m.shard < m.shards,
                       "fleet manifest: shard index out of range");
  return m;
}

std::string manifest_filename(const std::string& scenario, unsigned shard,
                              unsigned shards) {
  return scenario + "_shard_" + std::to_string(shard) + "_of_" +
         std::to_string(shards) + ".json";
}

std::string manifest_dir_for_cache(const std::string& cache_root) {
  return cache_root + "/fleet";
}

std::string write_document(const json::JsonValue& doc, const std::string& dir,
                           const std::string& filename) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  adc::common::require(!ec, "fleet: cannot create " + dir);
  const std::string path = dir + "/" + filename;
  adc::common::files::write_file(path, json::dump(doc));
  return path;
}

std::string write_manifest(const ShardManifest& m, const std::string& dir) {
  return write_document(manifest_document(m), dir,
                        manifest_filename(m.scenario, m.shard, m.shards));
}

ShardManifest load_manifest(const std::string& dir, const std::string& scenario,
                            unsigned shard, unsigned shards) {
  const std::string path = dir + "/" + manifest_filename(scenario, shard, shards);
  const auto text = adc::common::files::read_file(path);
  adc::common::require(text.has_value(), "fleet manifest: cannot open " + path +
                                             " (shard " + std::to_string(shard) +
                                             " never wrote its manifest?)");
  ShardManifest m = parse_manifest(json::parse(*text));
  adc::common::require(m.shard == shard && m.shards == shards && m.scenario == scenario,
                       "fleet manifest: " + path + " does not match shard " +
                           std::to_string(shard) + "/" + std::to_string(shards));
  return m;
}

}  // namespace adc::fleet
