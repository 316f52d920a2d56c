/// \file hash.hpp
/// Content addressing for scenario jobs.
///
/// A job's cache key is the FNV-1a 64-bit hash of its *canonical job
/// document*: the fully resolved physics of the job (die configuration
/// overrides, effective stimulus, measurement kind) serialized as canonical
/// JSON (sorted keys, compact — see common/json.hpp), plus
///
///   * the scenario schema version, so a semantic change to the schema
///     retires every old entry, and
///   * the *golden-code fingerprint*: a hash over the output codes of the
///     nominal and ideal dies for a pinned stimulus — under both fidelity
///     profiles — plus the nominal power breakdown, with the declared
///     fast-contract version (`adc::common::kFastContractVersion`) folded on
///     top. Any change to the converter or power models (exact or fast
///     kernels) changes the fingerprint and therefore every cache key —
///     stale physics can never be served from cache — and a fast-contract
///     bump retires old entries even if the regenerated codes collided.
///
/// The resolved fidelity profile is part of the job document itself, so
/// `exact` and `fast` runs of the same experiment address different entries
/// and a warm run of one profile is never polluted by the other.
///
/// Because hashing happens on the canonical form of the *resolved* job, two
/// specs that order their keys differently — or reach the same operating
/// point via different sweep/override combinations — share cache entries.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/json.hpp"
#include "scenario/spec.hpp"

namespace adc::scenario {

/// Version of the job-document schema. Bump when the resolved-job document
/// or the payload layout changes meaning.
/// v2: the die object carries the fidelity profile.
inline constexpr std::uint64_t kScenarioSchemaVersion = 2;

/// Incremental FNV-1a 64-bit hasher.
class Fnv1a {
 public:
  void update(std::string_view bytes) {
    for (const char c : bytes) {
      state_ ^= static_cast<unsigned char>(c);
      state_ *= 0x100000001b3ull;
    }
  }
  void update_u64(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      state_ ^= (value >> (8 * i)) & 0xffu;
      state_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_ = 0xcbf29ce484222325ull;
};

/// 16 lowercase hex digits.
[[nodiscard]] std::string to_hex(std::uint64_t value);

/// The model fingerprint described in the file header. Computed once per
/// process (fabricates two converters and runs ~1k conversions) and cached.
[[nodiscard]] std::uint64_t golden_code_fingerprint();

/// The fingerprint this build would have declared under fast-contract
/// version `fast_contract_version` (same behavioral code digest, different
/// version fold). `golden_code_fingerprint()` is this at
/// `adc::common::kFastContractVersion`. Exposed so tests can prove that
/// cache entries keyed under a different contract version are unreachable
/// from the current build.
[[nodiscard]] std::uint64_t golden_code_fingerprint_for(std::uint64_t fast_contract_version);

/// The canonical hash input for one resolved job (exposed for tests and the
/// `adc_scenario hash` subcommand).
[[nodiscard]] adc::common::json::JsonValue job_document(const ResolvedJob& job);

/// The cache key of one resolved job: hex FNV-1a over
/// `canonical(job_document)` + schema version + fingerprint.
[[nodiscard]] std::string job_hash(const ResolvedJob& job);

/// `job_hash` with an explicit fingerprint instead of the process-wide one
/// (test seam for the cross-version cache-isolation proof).
[[nodiscard]] std::string job_hash_with_fingerprint(const ResolvedJob& job,
                                                    std::uint64_t fingerprint);

/// The cache keys of one grid point's jobs, which differ only in their seed.
/// The constructor renders `canonical(job_document(job))` once and splits it
/// at the value of the die's `"seed"` member, the one place the seed occurs:
/// it keeps the FNV-1a state after the text before the value and the bytes
/// after it. `hash(s)` continues that state over the decimal digits of `s`
/// (as the canonical writer writes an unsigned integer), the kept bytes, the
/// schema version and the fingerprint, so it equals `job_hash` of `job` with
/// its seed set to `s` — at a byte-at-a-time hash of the text instead of a
/// document built, sorted and formatted per job. plan_scenario keys every
/// job through one of these per grid point; `job_hash` stays the per-job
/// definition it is tested against.
class JobHashTemplate {
 public:
  explicit JobHashTemplate(const ResolvedJob& job);
  [[nodiscard]] std::string hash(std::uint64_t seed) const;

 private:
  Fnv1a prefix_;        ///< state after the text up to the seed's value
  std::string suffix_;  ///< the text after the seed's value
  std::uint64_t fingerprint_ = 0;
};

/// Identity hash of a whole spec (name/description excluded): hex FNV-1a
/// over the canonical spec document + schema version + fingerprint. Stable
/// under key reordering in the spec file.
[[nodiscard]] std::string spec_hash(const ScenarioSpec& spec);

}  // namespace adc::scenario
