#include "fleet/merge.hpp"

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/files.hpp"
#include "fleet/plan.hpp"
#include "runtime/manifest.hpp"
#include "scenario/hash.hpp"
#include "scenario/runner.hpp"

namespace adc::fleet {

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

ShardManifest parse_manifest(const json::JsonValue& doc) {
  adc::common::require(doc.is_object(), "fleet manifest: document is not an object");
  adc::common::require(field_u64(doc, "schema_version") == adc::runtime::kManifestSchemaVersion,
                       "fleet manifest: schema_version is not " +
                           std::to_string(adc::runtime::kManifestSchemaVersion));
  ShardManifest m;
  m.scenario = field_string(doc, "scenario");
  m.spec_hash = field_string(doc, "spec_hash");
  m.fingerprint = field_string(doc, "fingerprint");
  m.shard = static_cast<unsigned>(field_u64(doc, "shard"));
  m.shards = static_cast<unsigned>(field_u64(doc, "shards"));
  m.owner = field_string(doc, "owner");
  for (const auto& [key, count] :
       {std::pair{"jobs_total", &m.jobs_total}, {"shard_jobs", &m.shard_jobs},
        {"cache_hits", &m.cache_hits}, {"computed", &m.computed},
        {"scavenged", &m.scavenged}, {"elsewhere", &m.elsewhere}, {"skipped", &m.skipped}}) {
    *count = field_u64(doc, key);
  }
  m.pool_jobs = field_u64(doc, "pool_jobs");
  const auto* complete = doc.find("complete");
  adc::common::require(complete != nullptr && complete->is_bool(),
                       "fleet manifest: missing bool field \"complete\"");
  m.complete = complete->as_bool();
  adc::common::require(m.shards != 0 && m.shard < m.shards,
                       "fleet manifest: shard index out of range");
  m.document = doc;
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

MergeResult merge_fleet(const adc::scenario::ScenarioSpec& spec,
                        const MergeOptions& options) {
  adc::common::require(options.shards != 0, "fleet merge: shard count must be positive");
  const FleetPlan fleet = plan_fleet(spec, options.shards);
  const adc::scenario::ScenarioPlan& plan = fleet.scenario;
  adc::scenario::ResultCache cache(options.cache_dir);

  MergeResult result;
  result.jobs_total = plan.jobs.size();

  // The merge *is* a warm cache read: load every payload the fleet stored.
  std::vector<std::optional<json::JsonValue>> payloads(plan.jobs.size());
  const std::size_t missing =
      plan.jobs.size() - adc::scenario::probe_cache(plan, cache, payloads, nullptr, 0);
  std::vector<std::size_t> missing_per_shard(options.shards, 0);
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    if (!payloads[i].has_value()) ++missing_per_shard[fleet.shard_of[i]];
  }
  if (missing != 0) {
    std::string detail;
    for (unsigned k = 0; k < options.shards; ++k) {
      if (missing_per_shard[k] == 0) continue;
      if (!detail.empty()) detail += ", ";
      detail += "shard " + std::to_string(k) + ": " +
                std::to_string(missing_per_shard[k]);
    }
    throw adc::common::MeasurementError(
        "fleet merge: " + std::to_string(missing) + " of " +
        std::to_string(plan.jobs.size()) + " jobs missing from cache " +
        cache.root() + " (" + detail + ") — did every worker finish?");
  }

  const std::string manifest_dir = manifest_dir_for_cache(cache.root());
  const std::string fingerprint =
      adc::scenario::to_hex(adc::scenario::golden_code_fingerprint());
  result.min_hit_rate = 1.0;
  for (unsigned k = 0; k < options.shards; ++k) {
    ShardManifest m = load_manifest(manifest_dir, spec.name, k, options.shards);
    adc::common::require(m.spec_hash == plan.spec_hash,
                         "fleet merge: shard " + std::to_string(k) +
                             " manifest was produced from a different spec");
    adc::common::require(m.fingerprint == fingerprint,
                         "fleet merge: shard " + std::to_string(k) +
                             " manifest was produced by different code (golden "
                             "fingerprint mismatch)");
    adc::common::require(m.jobs_total == plan.jobs.size(),
                         "fleet merge: shard " + std::to_string(k) +
                             " manifest job count does not match the plan");
    const double hit_rate = m.jobs_total == 0 ? 1.0
                                              : static_cast<double>(m.cache_hits) /
                                                    static_cast<double>(m.jobs_total);
    result.min_hit_rate = std::min(result.min_hit_rate, hit_rate);
    result.manifests.push_back(std::move(m));
  }

  // Same builder, same payload bytes, same report — the fleet's
  // byte-identity contract falls out of sharing this code path. The
  // payloads move into the report, and its rows render on the pool.
  result.report = adc::scenario::build_report(spec, plan, std::move(payloads));
  if (!options.report_dir.empty()) {
    const auto paths =
        adc::scenario::write_report_files(result.report, spec.name, options.report_dir, 0);
    result.report_json_path = paths.json_path;
    result.report_csv_path = paths.csv_path;
  }

  // The fleet manifest: the merge's own run (a warm read of the whole grid)
  // plus every shard manifest, one document for CI artifacts and
  // post-mortems. <scenario>_fleet.json, alongside the shard manifests.
  adc::runtime::RunManifest manifest("fleet_" + spec.name);
  adc::scenario::stamp_manifest(manifest, spec, plan.spec_hash, cache.root(),
                                {plan.jobs.size(), plan.jobs.size(), 0, 0, 0});
  manifest.set("shards", std::uint64_t{options.shards});
  manifest.set("min_hit_rate", result.min_hit_rate);
  auto shard_docs = json::JsonValue::array();
  for (const auto& m : result.manifests) shard_docs.push_back(m.document);
  manifest.set("shard_manifests", std::move(shard_docs));
  result.fleet_manifest_path = manifest_dir + "/" + spec.name + "_fleet.json";
  manifest.write(result.fleet_manifest_path);
  return result;
}

FleetStatus fleet_status(const adc::scenario::ScenarioSpec& spec,
                         const std::string& cache_dir) {
  adc::scenario::ResultCache cache(cache_dir);
  const adc::scenario::ScenarioPlan plan = adc::scenario::plan_scenario(spec);
  FleetStatus status;
  status.jobs_total = plan.jobs.size();
  std::vector<std::optional<json::JsonValue>> payloads(plan.jobs.size());
  status.cached = adc::scenario::probe_cache(plan, cache, payloads, nullptr, 0);
  status.claims = cache.claims();
  return status;
}

}  // namespace adc::fleet
