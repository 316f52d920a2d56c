#include "fleet/worker.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <set>
#include <vector>

#include "common/error.hpp"
#include "fleet/plan.hpp"
#include "runtime/parallel.hpp"
#include "scenario/cache.hpp"
#include "scenario/hash.hpp"
#include "scenario/runner.hpp"

namespace adc::fleet {

namespace json = adc::common::json;
using adc::scenario::ClaimOutcome;
using adc::scenario::ResultCache;

std::uint64_t wall_clock_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

std::string default_owner() {
  char host[256] = {};
  if (::gethostname(host, sizeof(host) - 1) != 0) host[0] = '\0';
  return std::string(host[0] != '\0' ? host : "localhost") + ":" +
         std::to_string(static_cast<long>(::getpid()));
}

namespace {

/// Tracks the claims this worker currently holds and re-stamps their
/// heartbeats from a background thread at lease/3, so a live worker's
/// claims never look stale no matter how long one execute unit takes.
/// acquire/release take one unit's hashes at a time and are called
/// concurrently from pool workers.
class ClaimGuard {
 public:
  ClaimGuard(ResultCache& cache, std::string owner, std::uint64_t lease_ms)
      : cache_(cache), owner_(std::move(owner)), lease_ms_(lease_ms) {
    thread_ = std::thread([this] { heartbeat_loop(); });
  }

  ~ClaimGuard() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
    // Claims normally drain as units store; anything left (budget stop,
    // exception unwind) is released so other workers need not wait out the
    // lease.
    cache_.release_claim(snapshot(), owner_);
  }

  /// Claim `hashes` in one call; one outcome per hash, in order.
  std::vector<ClaimOutcome> acquire(std::span<const std::string> hashes) {
    auto outcomes = cache_.try_claim(hashes, owner_, wall_clock_ms(), lease_ms_);
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < hashes.size(); ++i) {
      if (outcomes[i] == ClaimOutcome::kAcquired) held_.insert(hashes[i]);
    }
    return outcomes;
  }

  void release(std::span<const std::string> hashes) {
    if (hashes.empty()) return;
    cache_.release_claim(hashes, owner_);
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& hash : hashes) held_.erase(hash);
  }

  /// Rethrow, on the caller's thread, an error that stopped the heartbeat.
  void check_heartbeat() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (heartbeat_error_) std::rethrow_exception(heartbeat_error_);
  }

 private:
  std::vector<std::string> snapshot() {
    std::lock_guard<std::mutex> lock(mutex_);
    return {held_.begin(), held_.end()};
  }

  void heartbeat_loop() {
    const auto interval =
        std::chrono::milliseconds(std::max<std::uint64_t>(lease_ms_ / 3, 1));
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, interval, [this] { return stop_; })) {
      const std::vector<std::string> held(held_.begin(), held_.end());
      lock.unlock();
      // One claim file re-stamps every held name. A claim found stolen (we
      // stalled past the lease) is skipped: the in-flight job still stores
      // identical bytes, so this is only lost exclusivity, not lost work.
      try {
        (void)cache_.refresh_claim(held, owner_, wall_clock_ms());
      } catch (...) {
        lock.lock();
        heartbeat_error_ = std::current_exception();
        return;
      }
      lock.lock();
    }
  }

  ResultCache& cache_;
  const std::string owner_;
  const std::uint64_t lease_ms_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::set<std::string> held_;
  std::exception_ptr heartbeat_error_;
  std::thread thread_;
};

}  // namespace

WorkerResult run_worker(const adc::scenario::ScenarioSpec& spec,
                        const WorkerOptions& options) {
  adc::common::require(options.shards != 0, "fleet worker: shard count must be positive");
  adc::common::require(options.shard < options.shards,
                       "fleet worker: shard index " + std::to_string(options.shard) +
                           " out of range for " + std::to_string(options.shards) +
                           " shards");
  adc::common::require(options.lease_ms > 0, "fleet worker: lease must be positive");

  const FleetPlan fleet = plan_fleet(spec, options.shards);
  const adc::scenario::ScenarioPlan& plan = fleet.scenario;
  ResultCache cache(options.cache_dir);
  cache.ensure_writable();
  const std::string owner = options.owner.empty() ? default_owner() : options.owner;

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

  result.pool_before = adc::runtime::global_pool().counters();

  std::vector<std::optional<json::JsonValue>> payloads(plan.jobs.size());
  const auto done_count = [&] {
    std::size_t done = 0;
    for (const auto& payload : payloads) {
      if (payload.has_value()) ++done;
    }
    return done;
  };

  // Initial probe over the full grid: everything already in the shared
  // cache — previous runs, other machines — is a warm hit.
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    payloads[i] = cache.load(plan.hashes[i]);
    if (payloads[i].has_value()) ++m.cache_hits;
  }

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
    ClaimGuard guard(cache, owner, options.lease_ms);

    // Pass 0: our shard. Pass 1 (scavenge): everyone else's leftovers, so
    // a dead worker's shard is finished by the survivors.
    const int passes = options.scavenge ? 2 : 1;
    for (int pass = 0; pass < passes && !budget_exhausted; ++pass) {
      const bool scavenging = pass == 1;
      const auto candidate = [&](std::size_t i) {
        return scavenging || fleet.shard_of[i] == options.shard;
      };
      while (true) {
        // Re-probe the candidates still missing: another worker may have
        // stored them since we last looked.
        std::size_t missing = 0;
        for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
          if (payloads[i].has_value() || !candidate(i)) continue;
          payloads[i] = cache.load(plan.hashes[i]);
          if (payloads[i].has_value()) {
            ++m.elsewhere;
          } else {
            ++missing;
          }
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
        execute.hooks.acquire = [&](std::span<const std::size_t> indices) {
          // Decline anything another worker stored since our last probe —
          // the next probe round picks it up as `elsewhere` — and claim the
          // rest of the unit in one call. The re-check *after* acquiring
          // matters: a finished owner stores before it releases, so holding
          // the claim and still missing the entry proves the job was never
          // completed. That makes computation exactly-once (outside
          // crash/steal recovery) rather than merely usually-once.
          std::vector<std::size_t> wanted;
          std::vector<std::string> hashes;
          for (std::size_t p = 0; p < indices.size(); ++p) {
            const std::string& hash = plan.hashes[indices[p]];
            if (cache.load(hash).has_value()) continue;
            wanted.push_back(p);
            hashes.push_back(hash);
          }
          const std::vector<ClaimOutcome> outcomes = guard.acquire(hashes);
          std::vector<std::size_t> granted;
          std::vector<std::string> landed;
          for (std::size_t k = 0; k < hashes.size(); ++k) {
            if (outcomes[k] != ClaimOutcome::kAcquired) continue;
            if (cache.load(hashes[k]).has_value()) {
              landed.push_back(hashes[k]);
            } else {
              granted.push_back(wanted[k]);
            }
          }
          guard.release(landed);
          return granted;
        };
        execute.hooks.stored = [&](std::span<const std::size_t> indices) {
          std::vector<std::string> hashes;
          hashes.reserve(indices.size());
          for (const std::size_t i : indices) hashes.push_back(plan.hashes[i]);
          guard.release(hashes);
        };
        const auto outcome = adc::scenario::execute_plan(spec, plan, payloads, execute);
        guard.check_heartbeat();
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

  const std::string dir = options.manifest_dir.empty()
                              ? manifest_dir_for_cache(cache.root())
                              : options.manifest_dir;
  result.manifest_path = write_manifest(m, dir);
  return result;
}

}  // namespace adc::fleet
