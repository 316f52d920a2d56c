/// \file manifest.hpp
/// JSON run manifests: the provenance record of one parallel run.
///
/// Every heavy bench can export *what* it ran (seed range, operating points),
/// *how* (thread count, git revision, hardware concurrency) and *how fast*
/// (per-phase wall/CPU timings, pool counters, job latency histogram) as a
/// machine-readable JSON file. Schema documented in docs/RUNTIME.md.
///
/// Writing is opt-in, mirroring ADC_BENCH_CSV_DIR: manifests are written only
/// when ADC_RUNTIME_MANIFEST_DIR names a directory.
///
/// Schema version 2: serialization moved onto the shared strict JSON layer
/// (common/json.hpp) — same key set and semantics as v1, but every object
/// member is pretty-printed on its own line and consumers can round-trip the
/// document through `common::json::parse`. See docs/RUNTIME.md for the diff.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "runtime/metrics.hpp"
#include "runtime/thread_pool.hpp"

namespace adc::runtime {

/// The `git describe --always --dirty` of the tree this binary was built
/// from ("unknown" when the build was not configured inside a git checkout).
[[nodiscard]] const char* git_describe();

/// Accumulates one run's provenance and telemetry, then serializes to JSON.
/// Construction stamps the standard fields: run name, git revision, schema
/// version, default thread count, and hardware concurrency.
class RunManifest {
 public:
  explicit RunManifest(std::string run_name);

  /// Set a free-form string/number/count field (last set wins per key).
  void set_text(const std::string& key, const std::string& value);
  void set_number(const std::string& key, double value);
  void set_count(const std::string& key, std::uint64_t value);
  /// Convenience for the determinism contract: records first seed and count.
  void set_seed_range(std::uint64_t first_seed, std::uint64_t count);

  /// Record a completed phase (appended in call order).
  void add_phase(const PhaseTiming& phase);

  /// RAII phase timer: times construction-to-destruction and appends the
  /// phase on destruction.
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
