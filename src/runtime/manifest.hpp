/// \file manifest.hpp
/// JSON run manifests: the one telemetry format of the repo.
///
/// A manifest records *what* a run did (seed range, job tallies), *how*
/// (thread count, git revision, hardware concurrency) and *how fast*
/// (per-phase wall/CPU timings, pool counters, job latency histogram).
/// `adc_scenario run`, every `adc_fleet` worker and merge, each
/// `adc_scenariod` request and the instrumented benches write one; the
/// scenario front ends stamp their shared keys through
/// scenario::stamp_manifest. Schema version 3, documented in
/// docs/RUNTIME.md.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"

namespace adc::runtime {

/// The manifest schema version stamped into every manifest.
inline constexpr std::uint64_t kManifestSchemaVersion = 3;

/// The `git describe --always --dirty` of the tree this binary was built
/// from ("unknown" when the build was not configured inside a git checkout).
[[nodiscard]] const char* git_describe();

/// Pool counters as the JSON object a manifest's `pool` member holds; the
/// scenario service's `status` event carries the same object.
[[nodiscard]] adc::common::json::JsonValue pool_document(const PoolCounters& counters);

/// Accumulates one run's provenance and telemetry, then serializes to JSON.
/// Construction stamps the standard fields: run name, schema version, git
/// revision, default thread count, and hardware concurrency.
class RunManifest {
 public:
  explicit RunManifest(std::string run_name);

  /// Set a top-level field (last set wins per key; a new key goes last).
  void set(const std::string& key, adc::common::json::JsonValue value);

  /// Record a completed phase. The first phase of a name is appended; a
  /// later one of the same name adds its wall, CPU and jobs to it, so a
  /// loop that re-enters a phase keeps one entry per name.
  void add_phase(const PhaseTiming& phase);

  /// RAII phase timer: times construction-to-destruction and records the
  /// phase (add_phase) on destruction.
  class PhaseScope {
   public:
    PhaseScope(RunManifest& manifest, std::string name, std::uint64_t jobs = 0);
    ~PhaseScope();
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;
    /// Update the job count before the scope closes.
    void set_jobs(std::uint64_t jobs) { jobs_ = jobs; }

   private:
    RunManifest& manifest_;
    std::string name_;
    std::uint64_t jobs_;
    Stopwatch watch_;
  };
  [[nodiscard]] PhaseScope phase(std::string name, std::uint64_t jobs = 0) {
    return PhaseScope(*this, std::move(name), jobs);
  }

  /// Attach pool telemetry (counters + latency histogram snapshot).
  void set_pool_telemetry(const PoolCounters& counters, const HistogramSnapshot& latency);

  /// The manifest as a JSON value tree (fields in set order, then `phases`,
  /// `pool`, `job_latency_us`).
  [[nodiscard]] adc::common::json::JsonValue to_json_value() const;
  /// `to_json_value()` pretty-printed; ends with a newline.
  [[nodiscard]] std::string to_json() const;
  /// Write `to_json()` to `path`, whole (common/files.hpp). Throws
  /// ConfigError on I/O failure.
  void write(const std::string& path) const;
  /// Write `<ADC_RUNTIME_MANIFEST_DIR>/<run_name>_manifest.json` when the
  /// variable is set; returns the path written, nullopt when disabled.
  [[nodiscard]] std::optional<std::string> write_to_env_dir() const;

 private:
  std::string run_name_;
  adc::common::json::JsonValue fields_ = adc::common::json::JsonValue::object();
  std::vector<PhaseTiming> phases_;
  bool has_pool_telemetry_ = false;
  PoolCounters pool_counters_;
  HistogramSnapshot pool_latency_;
};

}  // namespace adc::runtime
