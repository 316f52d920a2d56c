#include "fleet/worker.hpp"

#include <chrono>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "fleet/plan.hpp"
#include "runtime/parallel.hpp"
#include "scenario/cache.hpp"
#include "scenario/claims.hpp"
#include "scenario/hash.hpp"
#include "scenario/runner.hpp"

namespace adc::fleet {

namespace json = adc::common::json;
using adc::scenario::ClaimHolder;
using adc::scenario::ResultCache;

WorkerResult run_worker(const adc::scenario::ScenarioSpec& spec,
                        const WorkerOptions& options) {
  adc::common::require(options.shards != 0, "fleet worker: shard count must be positive");
  adc::common::require(options.shard < options.shards,
                       "fleet worker: shard index " + std::to_string(options.shard) +
                           " out of range for " + std::to_string(options.shards) +
                           " shards");
  adc::common::require(options.lease_ms > 0, "fleet worker: lease must be positive");

  const FleetPlan fleet = plan_fleet(spec, options.shards, options.threads);
  const adc::scenario::ScenarioPlan& plan = fleet.scenario;
  ResultCache cache(options.cache_dir);
  cache.ensure_writable();
  const std::string owner =
      options.owner.empty() ? adc::scenario::default_claim_owner() : options.owner;

  WorkerResult result;
  ShardManifest& m = result.manifest;
  m.scenario = spec.name;
  m.spec_hash = plan.spec_hash;
  m.fingerprint = adc::scenario::to_hex(adc::scenario::golden_code_fingerprint());
  m.shard = options.shard;
  m.shards = options.shards;
  m.owner = owner;
  m.jobs_total = plan.jobs.size();
  m.shard_jobs = fleet.shard_sizes[options.shard];

  std::vector<std::optional<json::JsonValue>> payloads(plan.jobs.size());
  const auto done_count = [&] {
    std::size_t done = 0;
    for (const auto& payload : payloads) {
      if (payload.has_value()) ++done;
    }
    return done;
  };

  // Initial probe over the full grid: everything already in the shared
  // cache — previous runs, other machines — is a warm hit. The pool
  // counters start after it, as the runner's do after its probe, so a warm
  // worker reports zero pool jobs.
  m.cache_hits = adc::scenario::probe_cache(plan, cache, payloads, nullptr, options.threads);
  result.pool_before = adc::runtime::global_pool().counters();

  const auto report_progress = [&](bool scavenging) {
    if (!options.progress) return;
    WorkerProgress p;
    p.scavenging = scavenging;
    p.done = done_count();
    p.total = m.jobs_total;
    p.cache_hits = m.cache_hits;
    p.computed = m.computed;
    p.elsewhere = m.elsewhere;
    options.progress(p);
  };
  report_progress(false);

  bool budget_exhausted = false;
  {
    ClaimHolder holder(cache, owner, options.lease_ms);

    // Pass 0: our shard. Pass 1 (scavenge): everyone else's leftovers, so
    // a dead worker's shard is finished by the survivors.
    for (int pass = 0; pass < 2 && !budget_exhausted; ++pass) {
      const bool scavenging = pass == 1;
      const auto candidate = [&](std::size_t i) {
        return scavenging || fleet.shard_of[i] == options.shard;
      };
      while (true) {
        // Re-probe the candidates still missing: another worker may have
        // stored them since we last looked.
        m.elsewhere +=
            adc::scenario::probe_cache(plan, cache, payloads, candidate, options.threads);
        std::size_t missing = 0;
        for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
          if (!payloads[i].has_value() && candidate(i)) ++missing;
        }
        if (missing == 0) break;
        if (options.max_jobs != 0 && m.computed >= options.max_jobs) {
          budget_exhausted = true;
          break;
        }

        adc::scenario::ExecuteOptions execute;
        execute.threads = options.threads;
        execute.max_jobs = options.max_jobs != 0 ? options.max_jobs - m.computed : 0;
        execute.cache = &cache;
        execute.candidate = candidate;
        const auto unit_hashes = [&](std::span<const std::size_t> indices) {
          std::vector<std::string> hashes;
          hashes.reserve(indices.size());
          for (const std::size_t i : indices) hashes.push_back(plan.hashes[i]);
          return hashes;
        };
        // A job another worker stored since our last probe is declined and
        // picked up by the next probe round as `elsewhere`.
        execute.hooks.acquire = [&](std::span<const std::size_t> indices) {
          return holder.gate(unit_hashes(indices));
        };
        execute.hooks.stored = [&](std::span<const std::size_t> indices) {
          holder.release(unit_hashes(indices));
        };
        const auto outcome = adc::scenario::execute_plan(spec, plan, payloads, execute);
        holder.check_heartbeat();
        m.computed += outcome.computed;
        if (scavenging) m.scavenged += outcome.computed;
        report_progress(scavenging);
        if (outcome.skipped > 0) {
          budget_exhausted = true;
          break;
        }
        // Everything left is claimed by other live workers: wait one poll
        // interval for their stores to land, then probe again.
        if (outcome.computed == 0 && outcome.claimed_elsewhere > 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(options.poll_ms));
        }
      }
    }
  }

  result.pool_after = adc::runtime::global_pool().counters();
  m.pool_jobs = result.pool_after.submitted - result.pool_before.submitted;
  const std::size_t done = done_count();
  m.skipped = m.jobs_total - done;
  m.complete = done == m.jobs_total;
  adc::common::require(m.complete || budget_exhausted,
                       "fleet worker: exited with missing payloads but no budget stop");

  result.manifest_path = write_manifest(m, manifest_dir_for_cache(cache.root()));
  return result;
}

}  // namespace adc::fleet
