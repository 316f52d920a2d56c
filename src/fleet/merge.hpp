/// \file merge.hpp
/// Fleet coordination read-side: merge shard results into the single
/// report, and inspect a fleet's live state.
///
/// Merging is trivially correct by construction: workers only ever *fill
/// the cache*, so the merged report is produced by re-planning the spec and
/// loading every payload from the shared cache — the exact code path a
/// single-process `adc_scenario run` takes on a warm cache. The bytes are
/// identical because they are the same function of the same inputs, not
/// because anything is carefully reconciled. Shard manifests are checked
/// for identity (spec hash + golden fingerprint) and folded into a fleet
/// manifest for observability; they carry no payload data.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "fleet/manifest.hpp"
#include "scenario/cache.hpp"
#include "scenario/spec.hpp"

namespace adc::fleet {

/// Options for one merge.
struct MergeOptions {
  /// Cache root the fleet shared ("" = default resolution).
  std::string cache_dir;
  /// Directory for `<name>_report.json` / `<name>_report.csv` ("" = the
  /// report document is returned but not written).
  std::string report_dir;
  unsigned shards = 1;  ///< fleet width W (how many manifests to expect)
  /// Require all W shard manifests (the `adc_fleet merge` contract). When
  /// false only the cache must be complete — used by `adc_fleet run`, which
  /// already holds the workers' results in memory.
  bool require_manifests = true;
};

/// Outcome of one merge.
struct MergeResult {
  /// The merged report — byte-identical to single-process `adc_scenario
  /// run` of the same spec.
  adc::common::json::JsonValue report;
  std::string report_json_path;  ///< "" unless report_dir was set
  std::string report_csv_path;   ///< "" unless report_dir was set
  /// Fleet manifest (identity, per-shard summaries) written next to the
  /// shard manifests.
  std::string fleet_manifest_path;
  std::size_t jobs_total = 0;
  std::vector<ShardManifest> manifests;  ///< empty when !require_manifests
  /// Smallest per-worker warm-hit fraction (cache_hits / jobs_total) across
  /// the manifests; 0 when manifests were not required. The resume-health
  /// number CI gates on.
  double min_hit_rate = 0.0;
};

/// Merge a completed fleet run: verify every grid payload is in the cache
/// (throws MeasurementError naming the missing shards otherwise), verify
/// manifest identity, build and optionally write the report, and write the
/// fleet manifest.
MergeResult merge_fleet(const adc::scenario::ScenarioSpec& spec,
                        const MergeOptions& options);

/// Live view of a fleet mid-run, for `adc_fleet status`.
struct FleetStatus {
  std::size_t jobs_total = 0;
  std::size_t cached = 0;  ///< grid payloads already in the cache
  /// Every claim sidecar on disk (owner + heartbeat age tells who is live).
  std::vector<adc::scenario::ClaimRecord> claims;
};

/// Probe the cache for the spec's grid and list outstanding claims.
[[nodiscard]] FleetStatus fleet_status(const adc::scenario::ScenarioSpec& spec,
                                       const std::string& cache_dir);

}  // namespace adc::fleet
