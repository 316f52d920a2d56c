#include "fleet/plan.hpp"

#include <charconv>

#include "common/error.hpp"

namespace adc::fleet {

std::uint64_t hash_value(const std::string& hash) {
  adc::common::require(hash.size() == 16, "fleet: job hash must be 16 hex digits: " + hash);
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(hash.data(), hash.data() + hash.size(), value, 16);
  adc::common::require(ec == std::errc() && ptr == hash.data() + hash.size(),
                       "fleet: malformed job hash: " + hash);
  return value;
}

unsigned shard_of_hash(const std::string& hash, unsigned shards) {
  adc::common::require(shards != 0, "fleet: shard count must be positive");
  // Uniform range partition: multiply-shift keeps every shard's hash range
  // contiguous and exactly 2^64 / W wide (up to rounding), with no modulo
  // bias.
  const unsigned __int128 scaled =
      static_cast<unsigned __int128>(hash_value(hash)) * shards;
  return static_cast<unsigned>(scaled >> 64);
}

FleetPlan plan_fleet(const adc::scenario::ScenarioSpec& spec, unsigned shards,
                     unsigned threads) {
  adc::common::require(shards != 0, "fleet: shard count must be positive");
  FleetPlan fleet;
  fleet.scenario = adc::scenario::plan_scenario(spec, threads);
  fleet.shards = shards;
  fleet.shard_of.reserve(fleet.scenario.hashes.size());
  fleet.shard_sizes.assign(shards, 0);
  for (const auto& hash : fleet.scenario.hashes) {
    const unsigned shard = shard_of_hash(hash, shards);
    fleet.shard_of.push_back(shard);
    ++fleet.shard_sizes[shard];
  }
  return fleet;
}

}  // namespace adc::fleet
