/// \file manifest.hpp
/// Per-worker shard manifests: the record each fleet worker leaves behind.
///
/// A ShardManifest summarizes one worker's pass over the grid — identity
/// (spec hash + golden fingerprint, so merges refuse mismatched code or
/// spec), its shard coordinates, and the hit/computed/scavenged tallies the
/// coordinator folds into the fleet report. Manifests live in the `fleet/`
/// subdirectory of the cache root (excluded from cache walks), which is how
/// workers on separate machines sharing a cache directory hand their
/// results to `adc_fleet merge` without any other channel.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace adc::fleet {

/// One worker's summary of its run over a W-way sharded scenario.
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
};

/// Serialize to the on-disk JSON document (deterministic key order).
[[nodiscard]] adc::common::json::JsonValue manifest_document(const ShardManifest& m);

/// Parse a manifest document; throws ConfigError on malformed input.
[[nodiscard]] ShardManifest parse_manifest(const adc::common::json::JsonValue& doc);

/// `<scenario>_shard_<k>_of_<W>.json`.
[[nodiscard]] std::string manifest_filename(const std::string& scenario, unsigned shard,
                                            unsigned shards);

/// The manifest directory for a cache root: `<root>/fleet` (the subtree
/// ResultCache walks skip).
[[nodiscard]] std::string manifest_dir_for_cache(const std::string& cache_root);

/// Write `doc` as `dir/filename` (`dir` created if needed); returns the
/// path. Written whole through common/files, so concurrent writers of one
/// path each succeed and a reader sees one whole document.
std::string write_document(const adc::common::json::JsonValue& doc, const std::string& dir,
                           const std::string& filename);

/// Write `m` into `dir` (created if needed) under its canonical filename
/// through write_document; returns the path.
std::string write_manifest(const ShardManifest& m, const std::string& dir);

/// Load and parse `dir`'s manifest for shard k/W of `scenario`. Throws
/// ConfigError when the file is absent or malformed — the merge's "shard k
/// never finished" diagnostic.
[[nodiscard]] ShardManifest load_manifest(const std::string& dir,
                                          const std::string& scenario, unsigned shard,
                                          unsigned shards);

}  // namespace adc::fleet
