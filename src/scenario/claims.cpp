#include "scenario/claims.hpp"

#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/error.hpp"

namespace adc::scenario {

std::string default_claim_owner() {
  char host[256] = {};
  if (::gethostname(host, sizeof(host) - 1) != 0) host[0] = '\0';
  return std::string(host[0] != '\0' ? host : "localhost") + ":" +
         std::to_string(static_cast<long>(::getpid()));
}

ClaimHolder::ClaimHolder(ResultCache& cache, std::string owner, std::uint64_t lease_ms)
    : cache_(cache),
      owner_(std::move(owner)),
      lease_ms_(lease_ms),
      heartbeat_(std::max<std::uint64_t>(lease_ms / 3, 1), [this] {
        // One claim file re-stamps every held name. A claim found stolen
        // (we stalled past the lease) is skipped: the in-flight job still
        // stores identical bytes, so this is only lost exclusivity, not lost
        // work. The round holds the lock throughout (see release()).
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<std::string> claimed;
        for (const auto& [hash, stamp] : held_) {
          if (stamp != 0) claimed.push_back(hash);
        }
        // Names keep their old stamps when one was stolen, so a stolen name
        // never becomes a young link source.
        const std::uint64_t now = runtime::wall_clock_ms();
        if (cache_.refresh_claim(claimed, owner_, now) == claimed.size()) {
          for (const auto& hash : claimed) held_[hash] = now;
        }
      }) {
  adc::common::require(!owner_.empty(), "ClaimHolder: empty owner id");
  adc::common::require(lease_ms_ > 0, "ClaimHolder: lease must be positive");
}

ClaimHolder::~ClaimHolder() {
  heartbeat_.stop();
  std::vector<std::string> held;
  for (const auto& entry : held_) held.push_back(entry.first);
  cache_.release_claim(held, owner_);
}

std::vector<std::size_t> ClaimHolder::gate(std::span<const std::string> hashes) {
  const std::vector<std::size_t> wanted = reserve(hashes);
  std::vector<std::string> reserved;
  reserved.reserve(wanted.size());
  for (const std::size_t p : wanted) reserved.push_back(hashes[p]);
  std::vector<std::size_t> granted;
  for (const std::size_t k : claim(reserved)) granted.push_back(wanted[k]);
  return granted;
}

std::vector<std::size_t> ClaimHolder::reserve(std::span<const std::string> hashes) {
  std::vector<std::size_t> wanted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t p = 0; p < hashes.size(); ++p) {
      if (held_.emplace(hashes[p], 0).second) wanted.push_back(p);
    }
  }
  // A stored job needs no claim. A holder stores before it releases, so a
  // job this process computed is stored by the time it can be reserved.
  std::vector<std::size_t> missing;
  std::vector<std::string> stored;
  try {
    for (const std::size_t p : wanted) {
      if (cache_.load(hashes[p]).has_value()) {
        stored.push_back(hashes[p]);
      } else {
        missing.push_back(p);
      }
    }
  } catch (...) {
    for (const std::size_t p : wanted) stored.push_back(hashes[p]);
    forget(stored);
    throw;
  }
  forget(stored);
  return missing;
}

std::vector<std::size_t> ClaimHolder::claim(std::span<const std::string> reserved) {
  std::vector<std::size_t> granted;
  std::vector<std::string> busy;
  try {
    // Link each name to a claim file this holder already has on disk, when
    // one is young enough to stay live until the next heartbeat round
    // re-stamps the new name: a link creates no inode, and a fresh claim
    // file is the dearest step of a one-job unit. The lock keeps the
    // source from being released meanwhile.
    std::vector<std::size_t> won;
    std::vector<std::size_t> rest;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto source =
          std::max_element(held_.begin(), held_.end(),
                           [](const auto& a, const auto& b) { return a.second < b.second; });
      const bool young = source != held_.end() && source->second != 0 &&
                         runtime::wall_clock_ms() < source->second + lease_ms_ / 3;
      for (std::size_t k = 0; k < reserved.size(); ++k) {
        if (young && cache_.link_claim(source->first, reserved[k])) {
          held_[reserved[k]] = source->second;
          won.push_back(k);
        } else {
          rest.push_back(k);
        }
      }
    }
    // A name another owner holds live is declined on a read, so a cell
    // parked behind it retries without writing a claim file. The rest go
    // in one call: fresh names with no young source, stale or corrupt
    // claims, and our own leftovers.
    const std::uint64_t now = runtime::wall_clock_ms();
    std::vector<std::size_t> tried;
    std::vector<std::string> names;
    for (const std::size_t k : rest) {
      const auto existing = cache_.read_claim(reserved[k]);
      if (existing.has_value() && existing->owner != owner_ &&
          now < existing->heartbeat_ms + lease_ms_) {
        busy.push_back(reserved[k]);
      } else {
        tried.push_back(k);
        names.push_back(reserved[k]);
      }
    }
    const std::vector<ClaimOutcome> outcomes = cache_.try_claim(names, owner_, now, lease_ms_);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (std::size_t j = 0; j < tried.size(); ++j) {
        if (outcomes[j] == ClaimOutcome::kAcquired) {
          held_[names[j]] = now;
          won.push_back(tried[j]);
        } else {
          busy.push_back(names[j]);
        }
      }
    }
    std::sort(won.begin(), won.end());
    // Re-check each job won; one that landed in between is released.
    std::vector<std::string> landed;
    for (const std::size_t k : won) {
      if (cache_.load(reserved[k]).has_value()) {
        landed.push_back(reserved[k]);
      } else {
        granted.push_back(k);
      }
    }
    release(landed);
  } catch (...) {
    // Drop whatever of this call's claims landed before the failure.
    forget(reserved);
    cache_.release_claim(reserved, owner_);
    throw;
  }
  forget(busy);
  return granted;
}

void ClaimHolder::release(std::span<const std::string> hashes) {
  // Forgotten first, under the lock a heartbeat round holds throughout: no
  // round re-stamps (and so revives) these names after they are deleted,
  // and no claim links to them. The deletes need no lock.
  forget(hashes);
  cache_.release_claim(hashes, owner_);
}

void ClaimHolder::forget(std::span<const std::string> hashes) {
  if (hashes.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& hash : hashes) held_.erase(hash);
}

}  // namespace adc::scenario
