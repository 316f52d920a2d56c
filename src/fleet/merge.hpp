/// \file merge.hpp
/// Fleet coordination read-side: merge shard results into the single
/// report, and inspect a fleet's live state.
///
/// Merging is trivially correct by construction: workers only ever *fill
/// the cache*, so the merged report is produced by re-planning the spec and
/// loading every payload from the shared cache — the exact code path a
/// single-process `adc_scenario run` takes on a warm cache. The bytes are
/// identical because they are the same function of the same inputs, not
/// because anything is carefully reconciled. Each worker's shard manifest
/// (a run manifest, runtime/manifest.hpp) waits in `<cache>/fleet/`, which
/// cache walks skip; the merge checks its identity (spec hash + golden
/// fingerprint) and embeds it in the fleet manifest. No payload data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "scenario/cache.hpp"
#include "scenario/spec.hpp"

namespace adc::fleet {

/// The view of one worker's shard manifest that the merge reads back.
struct ShardManifest {
  std::string scenario;     ///< spec name
  std::string spec_hash;    ///< request identity (scenario/hash.hpp)
  std::string fingerprint;  ///< golden_code_fingerprint() of the worker
  unsigned shard = 0;       ///< 0-based shard index
  unsigned shards = 0;      ///< fleet width W
  std::string owner;        ///< claim owner id (host:pid)
  std::size_t jobs_total = 0;   ///< jobs in the full grid
  std::size_t shard_jobs = 0;   ///< jobs assigned to this shard
  std::size_t cache_hits = 0;   ///< grid payloads warm at worker start
  std::size_t computed = 0;     ///< jobs this worker computed (all shards)
  std::size_t scavenged = 0;    ///< of `computed`, jobs outside its shard
  std::size_t elsewhere = 0;    ///< payloads other workers landed mid-run
  std::size_t skipped = 0;      ///< jobs left uncomputed by --max-jobs
  std::uint64_t pool_jobs = 0;  ///< pool jobs submitted (0 on a warm run)
  bool complete = false;        ///< full grid had payloads at exit
  /// The manifest document this view was parsed from.
  adc::common::json::JsonValue document;
};

/// Parse a shard manifest, which may come from another machine. Throws
/// ConfigError on a non-object, a schema_version other than 3, a missing
/// or mistyped key, or a shard index out of range.
[[nodiscard]] ShardManifest parse_manifest(const adc::common::json::JsonValue& doc);

/// `<scenario>_shard_<k>_of_<W>.json`.
[[nodiscard]] std::string manifest_filename(const std::string& scenario, unsigned shard,
                                            unsigned shards);

/// The manifest directory for a cache root: `<root>/fleet`.
[[nodiscard]] std::string manifest_dir_for_cache(const std::string& cache_root);

/// Load and parse `dir`'s manifest for shard k/W of `scenario`. Throws
/// ConfigError when the file is absent or malformed — the merge's "shard k
/// never finished" diagnostic.
[[nodiscard]] ShardManifest load_manifest(const std::string& dir,
                                          const std::string& scenario, unsigned shard,
                                          unsigned shards);

/// Options for one merge.
struct MergeOptions {
  /// Cache root the fleet shared ("" = default resolution).
  std::string cache_dir;
  /// Directory for `<name>_report.json` / `<name>_report.csv` ("" = the
  /// report document is returned but not written).
  std::string report_dir;
  unsigned shards = 1;  ///< fleet width W (how many manifests to expect)
};

/// Outcome of one merge.
struct MergeResult {
  /// The merged report — byte-identical to single-process `adc_scenario
  /// run` of the same spec.
  adc::common::json::JsonValue report;
  std::string report_json_path;  ///< "" unless report_dir was set
  std::string report_csv_path;   ///< "" unless report_dir was set
  /// Fleet manifest (a run manifest embedding the shard manifests) written
  /// next to the shard manifests.
  std::string fleet_manifest_path;
  std::size_t jobs_total = 0;
  std::vector<ShardManifest> manifests;  ///< shard 0..W-1
  /// Smallest per-worker warm-hit fraction (cache_hits / jobs_total) across
  /// the manifests: the resume-health number CI gates on.
  double min_hit_rate = 0.0;
};

/// Merge a completed fleet run: verify every grid payload is in the cache
/// (throws MeasurementError naming the missing shards otherwise), load all
/// W shard manifests and verify their identity (throws ConfigError), build
/// and optionally write the report, and write the fleet manifest. The fleet
/// manifest records no timings, so concurrent merges of one fleet write
/// the same bytes.
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
