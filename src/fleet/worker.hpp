/// \file worker.hpp
/// One fleet worker: claim-gated execution of a shard, plus scavenging.
///
/// A worker owns one shard of the fleet plan and runs in rounds: probe the
/// shared cache for payloads that landed since the last look, push the
/// remaining misses through the shared execute phase (scenario/runner.hpp)
/// with the claim gate of scenario/claims.hpp (one `ClaimHolder` per
/// worker), and — when every remaining miss is claimed by someone else —
/// sleep one poll interval and probe again. The holder's heartbeat
/// re-stamps every held claim well inside the lease, so only a crashed or
/// stalled worker's claims ever go stale. After its own shard is
/// done the worker scavenges: it sweeps the rest of the grid the same way,
/// so a killed worker's leftovers are finished by the survivors and a
/// re-issued fleet run starts ~fully warm.
///
/// This layer owns the polling sleeps; the heartbeat clock lives in
/// src/runtime. Everything below stays deterministic.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "fleet/manifest.hpp"
#include "runtime/heartbeat.hpp"
#include "runtime/thread_pool.hpp"
#include "scenario/claims.hpp"
#include "scenario/spec.hpp"

namespace adc::fleet {

/// Snapshot handed to the progress callback after the initial probe and
/// after every execute round.
struct WorkerProgress {
  bool scavenging = false;      ///< past its own shard, sweeping leftovers
  std::size_t done = 0;         ///< grid payloads present so far
  std::size_t total = 0;        ///< jobs in the full grid
  std::size_t cache_hits = 0;   ///< payloads warm at worker start
  std::size_t computed = 0;     ///< computed by this worker so far
  std::size_t elsewhere = 0;    ///< payloads other workers landed mid-run
};

/// Options for one worker process.
struct WorkerOptions {
  /// Cache root shared by the whole fleet ("" = default resolution).
  std::string cache_dir;
  unsigned shards = 1;  ///< fleet width W
  unsigned shard = 0;   ///< this worker's shard, 0-based
  /// Claim owner id ("" = "<host>:<pid>", scenario::default_claim_owner).
  std::string owner;
  /// A claim whose heartbeat is older than this is considered abandoned
  /// and stolen. Must comfortably exceed the heartbeat interval (lease/3).
  std::uint64_t lease_ms = adc::scenario::kClaimLeaseMs;
  /// Sleep between probes while every remaining miss is claimed elsewhere.
  std::uint64_t poll_ms = 50;
  /// Worker threads for the plan, the cache probes and the execute phase
  /// (0 = runtime default).
  unsigned threads = 0;
  /// Compute at most this many jobs then stop (0 = unlimited); the
  /// manifest reports the remainder as skipped and complete=false.
  std::size_t max_jobs = 0;
  /// Progress callback (called on the worker's coordinating thread).
  std::function<void(const WorkerProgress&)> progress;
};

/// Outcome of one worker run.
struct WorkerResult {
  ShardManifest manifest;
  std::string manifest_path;
  /// Global pool counters from the end of the initial cache probe to the
  /// end of the run; equal submitted counts prove a fully warm run (zero
  /// pool jobs).
  adc::runtime::PoolCounters pool_before;
  adc::runtime::PoolCounters pool_after;
};

/// Run one worker to completion: probe/execute rounds over its shard, then
/// scavenging, then write the shard manifest. Returns when every grid
/// payload exists (complete=true) or the max_jobs budget ran out
/// (complete=false). Throws ConfigError/MeasurementError on invalid
/// options, specs, or I/O failure.
WorkerResult run_worker(const adc::scenario::ScenarioSpec& spec,
                        const WorkerOptions& options);

/// The claim heartbeat clock (runtime/heartbeat.hpp), for status views and
/// stale sweeps next to the worker.
using adc::runtime::wall_clock_ms;

}  // namespace adc::fleet
