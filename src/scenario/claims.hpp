/// \file claims.hpp
/// The claim holder: exactly-once computation over the cache's claim
/// protocol (cache.hpp), shared by every front end that computes jobs on a
/// cache root others may also be filling — the fleet worker (src/fleet/) and
/// the scenario service (src/service/).
///
/// A holder owns one claim owner id. Its `gate` decides which jobs of an
/// execute unit the caller may compute now:
///
///   1. a job this holder already holds is declined *in memory*, so two
///      identical cells inside one process compute once even though the
///      on-disk claim is re-entrant for its owner;
///   2. a job already in the cache is declined (it is served, not computed);
///   3. the rest are claimed: each name is linked to a claim file this
///      holder already has on disk while one is young enough
///      (`ResultCache::link_claim`, no new inode); a name another owner
///      holds within its lease is declined on a read; the remainder is
///      claimed in one `ResultCache::try_claim` call;
///   4. each job won is re-checked against the cache: a finished owner
///      stores before it releases, so holding the claim and still missing
///      the entry proves the job was never completed. A job that landed in
///      between is released and declined.
///
/// The caller computes the granted jobs, stores them, and then releases
/// their claims. A background `runtime::Heartbeat` re-stamps every held
/// claim at lease/3, so a live holder's claims never look stale however
/// long a unit takes; only a crashed or stalled owner's claims are stolen.
/// The wall clock comes from src/runtime: this layer reads no clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "runtime/heartbeat.hpp"
#include "scenario/cache.hpp"

namespace adc::scenario {

/// The claim lease: a claim whose heartbeat is older than this is abandoned
/// and may be stolen (the default of every claimant and of
/// `adc_scenario cache clear --stale`).
inline constexpr std::uint64_t kClaimLeaseMs = 10000;

/// The default claim owner id for this process: "<host>:<pid>".
[[nodiscard]] std::string default_claim_owner();

class ClaimHolder {
 public:
  /// Hold claims on `cache` as `owner` with `lease_ms`; starts the
  /// heartbeat.
  ClaimHolder(ResultCache& cache, std::string owner, std::uint64_t lease_ms = kClaimLeaseMs);
  /// Stops the heartbeat and releases whatever is still held (a budget stop
  /// or an exception unwind), so nobody waits out the lease.
  ~ClaimHolder();

  ClaimHolder(const ClaimHolder&) = delete;
  ClaimHolder& operator=(const ClaimHolder&) = delete;

  /// The gate (see the file comment) over one unit's job hashes: the
  /// positions into `hashes`, ascending, the caller now holds and must
  /// compute, store and release. Thread-safe. Throws what the cache's claim
  /// calls throw, holding none of this call's claims.
  [[nodiscard]] std::vector<std::size_t> gate(std::span<const std::string> hashes);

  /// Release the claims on `hashes` (call after their entries are stored).
  void release(std::span<const std::string> hashes);

  /// Rethrow, on the caller's thread, an error a heartbeat round threw.
  void check_heartbeat() { heartbeat_.rethrow_error(); }

 private:
  /// Steps 1 and 2 of the gate: the positions of `hashes` reserved.
  std::vector<std::size_t> reserve(std::span<const std::string> hashes);
  /// Steps 3 and 4 over reserved hashes: the positions granted.
  std::vector<std::size_t> claim(std::span<const std::string> reserved);
  void forget(std::span<const std::string> hashes);

  ResultCache& cache_;
  const std::string owner_;
  const std::uint64_t lease_ms_;
  std::mutex mutex_;
  /// Claims held or being claimed: hash -> heartbeat of our claim file on
  /// disk, 0 while only reserved.
  std::map<std::string, std::uint64_t> held_;
  runtime::Heartbeat heartbeat_;
};

}  // namespace adc::scenario
