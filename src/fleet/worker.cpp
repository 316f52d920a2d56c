#include "fleet/worker.hpp"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "fleet/plan.hpp"
#include "runtime/manifest.hpp"
#include "runtime/parallel.hpp"
#include "scenario/cache.hpp"
#include "scenario/claims.hpp"
#include "scenario/runner.hpp"

namespace adc::fleet {

namespace json = adc::common::json;
using adc::scenario::ClaimHolder;
using adc::scenario::ResultCache;

bool wait_for_jobs(ResultCache& cache, adc::common::files::NameWatch& watch,
                   std::span<const std::string> hashes, std::uint64_t bound_ms) {
  using Clock = std::chrono::steady_clock;
  cache.arm_watch(watch, hashes);
  bool woken = watch.done();
  // poll(2) takes an int timeout; no wait is longer than INT_MAX ms.
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(std::min<std::uint64_t>(bound_ms, INT_MAX));
  while (!woken) {
    const auto left =
        std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now()).count();
    if (left <= 0) break;
    woken = watch.wait(static_cast<int>(left));
  }
  watch.disarm();
  return woken;
}

WorkerResult run_worker(const adc::scenario::ScenarioSpec& spec,
                        const WorkerOptions& options) {
  adc::common::require(options.shards != 0, "fleet worker: shard count must be positive");
  adc::common::require(options.shard < options.shards,
                       "fleet worker: shard index " + std::to_string(options.shard) +
                           " out of range for " + std::to_string(options.shards) +
                           " shards");
  adc::common::require(options.lease_ms > 0, "fleet worker: lease must be positive");
  adc::common::require(options.poll_ms > 0, "fleet worker: poll bound must be positive");

  const std::string filename = manifest_filename(spec.name, options.shard, options.shards);
  // The run name is the file's stem: <scenario>_shard_<k>_of_<W>.
  adc::runtime::RunManifest manifest(filename.substr(0, filename.size() - 5));
  FleetPlan fleet;
  {
    auto phase = manifest.phase("expand");
    fleet = plan_fleet(spec, options.shards);
    phase.set_jobs(fleet.scenario.jobs.size());
  }
  const adc::scenario::ScenarioPlan& plan = fleet.scenario;
  ResultCache cache(options.cache_dir);
  cache.ensure_writable();
  const std::string owner =
      options.owner.empty() ? adc::scenario::default_claim_owner() : options.owner;

  WorkerResult result;
  adc::scenario::RunTally tally;
  tally.jobs_total = plan.jobs.size();
  std::size_t scavenged = 0;

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
  {
    auto phase = manifest.phase("cache_probe", plan.jobs.size());
    tally.cache_hits =
        adc::scenario::probe_cache(plan, cache, payloads, nullptr, options.threads);
  }
  result.pool_before = adc::runtime::global_pool().counters();

  const auto report_progress = [&](bool scavenging) {
    if (!options.progress) return;
    options.progress({scavenging, done_count(), tally});
  };
  report_progress(false);

  bool budget_exhausted = false;
  {
    ClaimHolder holder(cache, owner, options.lease_ms);
    adc::common::files::NameWatch watch;

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
        {
          auto phase = manifest.phase("cache_probe");
          tally.elsewhere +=
              adc::scenario::probe_cache(plan, cache, payloads, candidate, options.threads);
        }
        std::size_t missing = 0;
        for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
          if (!payloads[i].has_value() && candidate(i)) ++missing;
        }
        if (missing == 0) break;
        if (options.max_jobs != 0 && tally.computed >= options.max_jobs) {
          budget_exhausted = true;
          break;
        }

        adc::scenario::ExecuteOptions execute;
        execute.threads = options.threads;
        execute.max_jobs = options.max_jobs != 0 ? options.max_jobs - tally.computed : 0;
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
        adc::scenario::ExecuteOutcome outcome;
        {
          auto phase = manifest.phase("execute");
          outcome = adc::scenario::execute_plan(spec, plan, payloads, execute);
          phase.set_jobs(outcome.computed);
        }
        holder.check_heartbeat();
        tally.computed += outcome.computed;
        if (scavenging) scavenged += outcome.computed;
        report_progress(scavenging);
        if (outcome.skipped > 0) {
          budget_exhausted = true;
          break;
        }
        // Everything left is claimed by other live workers: wait until one
        // of those jobs is stored or released (at most one poll interval),
        // then probe again. The phase's jobs count the waits.
        if (outcome.computed == 0 && outcome.claimed_elsewhere > 0) {
          auto phase = manifest.phase("claim_wait", 1);
          std::vector<std::string> waiting;
          for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
            if (!payloads[i].has_value() && candidate(i)) waiting.push_back(plan.hashes[i]);
          }
          wait_for_jobs(cache, watch, waiting, options.poll_ms);
        }
      }
    }
  }

  result.pool_after = adc::runtime::global_pool().counters();
  const std::size_t done = done_count();
  tally.skipped = tally.jobs_total - done;
  const bool complete = done == tally.jobs_total;
  adc::common::require(complete || budget_exhausted,
                       "fleet worker: exited with missing payloads but no budget stop");

  adc::scenario::stamp_manifest(manifest, spec, plan.spec_hash, cache.root(), tally);
  manifest.set("threads", std::uint64_t{adc::runtime::effective_thread_count(options.threads)});
  manifest.set("shard", std::uint64_t{options.shard});
  manifest.set("shards", std::uint64_t{options.shards});
  manifest.set("owner", owner);
  manifest.set("shard_jobs", std::uint64_t{fleet.shard_sizes[options.shard]});
  manifest.set("scavenged", std::uint64_t{scavenged});
  manifest.set("pool_jobs", result.pool_after.submitted - result.pool_before.submitted);
  manifest.set("complete", complete);
  manifest.set_pool_telemetry(result.pool_after,
                              adc::runtime::global_pool().latency_histogram());

  const std::string dir = manifest_dir_for_cache(cache.root());
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  adc::common::require(!ec, "fleet worker: cannot create " + dir);
  result.manifest_path = dir + "/" + filename;
  manifest.write(result.manifest_path);
  result.manifest = parse_manifest(manifest.to_json_value());
  return result;
}

}  // namespace adc::fleet
