/// \file plan.hpp
/// Deterministic sharding of a scenario's resolved-job grid.
///
/// A fleet partitions work by *job-hash range*: the 16-hex-digit content
/// address of each resolved job is read as a uint64 and mapped to one of W
/// shards by uniform range partition. Because the hash already folds in the
/// full job identity (spec axes, seed, schema version, golden fingerprint),
/// the partition is a pure function of the spec — every worker, on any
/// machine, derives the identical assignment with no coordination traffic.
/// Hashes are uniform over the 64-bit space, so shard sizes concentrate
/// tightly around jobs/W without any balancing pass.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace adc::fleet {

/// Numeric value of a 16-hex-digit job hash (the to_hex form produced by
/// scenario/hash.hpp). Throws ConfigError on malformed input.
[[nodiscard]] std::uint64_t hash_value(const std::string& hash);

/// The shard (0-based) owning `hash` under a `shards`-way partition:
/// `floor(value * shards / 2^64)` — a uniform split of the hash space into
/// W contiguous ranges. Throws ConfigError when `shards` is zero.
[[nodiscard]] unsigned shard_of_hash(const std::string& hash, unsigned shards);

/// A scenario plan plus its W-way shard assignment.
struct FleetPlan {
  adc::scenario::ScenarioPlan scenario;
  unsigned shards = 1;
  /// shard_of[i] = shard owning scenario.jobs[i]; aligned with the plan.
  std::vector<unsigned> shard_of;
  /// shard_sizes[k] = number of jobs assigned to shard k.
  std::vector<std::size_t> shard_sizes;
};

/// Expand `spec` through the shared planner (hashing on `threads` workers
/// as plan_scenario does) and assign every job to its shard.
/// Every process that plans the same spec with the same W gets the
/// identical partition, at any thread count.
[[nodiscard]] FleetPlan plan_fleet(const adc::scenario::ScenarioSpec& spec,
                                   unsigned shards, unsigned threads = 1);

}  // namespace adc::fleet
