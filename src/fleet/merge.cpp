#include "fleet/merge.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "fleet/plan.hpp"
#include "scenario/hash.hpp"
#include "scenario/runner.hpp"

namespace adc::fleet {

namespace json = adc::common::json;

MergeResult merge_fleet(const adc::scenario::ScenarioSpec& spec,
                        const MergeOptions& options) {
  adc::common::require(options.shards != 0, "fleet merge: shard count must be positive");
  const FleetPlan fleet = plan_fleet(spec, options.shards, 0);
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
  if (options.require_manifests) {
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
      const double hit_rate = m.jobs_total == 0
                                  ? 1.0
                                  : static_cast<double>(m.cache_hits) /
                                        static_cast<double>(m.jobs_total);
      result.min_hit_rate = std::min(result.min_hit_rate, hit_rate);
      result.manifests.push_back(std::move(m));
    }
  }

  // Same builder, same payload bytes, same report — the fleet's
  // byte-identity contract falls out of sharing this code path.
  result.report = adc::scenario::build_report(spec, plan, payloads);
  if (!options.report_dir.empty()) {
    const auto paths =
        adc::scenario::write_report_files(result.report, spec.name, options.report_dir);
    result.report_json_path = paths.json_path;
    result.report_csv_path = paths.csv_path;
  }

  // The fleet manifest: run identity plus every shard summary, one document
  // for CI artifacts and post-mortems.
  auto doc = json::JsonValue::object();
  doc.set("scenario", spec.name);
  doc.set("spec_hash", plan.spec_hash);
  doc.set("fingerprint", fingerprint);
  doc.set("shards", static_cast<std::uint64_t>(options.shards));
  doc.set("jobs_total", static_cast<std::uint64_t>(plan.jobs.size()));
  doc.set("min_hit_rate", result.min_hit_rate);
  auto shard_docs = json::JsonValue::array();
  for (const auto& m : result.manifests) shard_docs.push_back(manifest_document(m));
  doc.set("shard_manifests", std::move(shard_docs));
  // <scenario>_fleet.json, alongside the shard manifests.
  result.fleet_manifest_path = write_document(doc, manifest_dir, spec.name + "_fleet.json");
  return result;
}

FleetStatus fleet_status(const adc::scenario::ScenarioSpec& spec,
                         const std::string& cache_dir) {
  adc::scenario::ResultCache cache(cache_dir);
  const adc::scenario::ScenarioPlan plan = adc::scenario::plan_scenario(spec, 0);
  FleetStatus status;
  status.jobs_total = plan.jobs.size();
  std::vector<std::optional<json::JsonValue>> payloads(plan.jobs.size());
  status.cached = adc::scenario::probe_cache(plan, cache, payloads, nullptr, 0);
  status.claims = cache.claims();
  return status;
}

}  // namespace adc::fleet
