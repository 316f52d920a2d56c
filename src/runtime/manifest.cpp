#include "runtime/manifest.hpp"

#include <cstdlib>
#include <utility>

#include "common/files.hpp"
#include "runtime/parallel.hpp"

#ifndef ADC_GIT_DESCRIBE
#define ADC_GIT_DESCRIBE "unknown"
#endif

namespace adc::runtime {

namespace json = adc::common::json;

const char* git_describe() { return ADC_GIT_DESCRIBE; }

json::JsonValue pool_document(const PoolCounters& counters) {
  auto pool = json::JsonValue::object();
  pool.set("submitted", counters.submitted);
  pool.set("executed", counters.executed);
  pool.set("stolen", counters.stolen);
  pool.set("failed", counters.failed);
  pool.set("backpressure_waits", counters.backpressure_waits);
  return pool;
}

RunManifest::RunManifest(std::string run_name) : run_name_(std::move(run_name)) {
  set("run", run_name_);
  set("schema_version", kManifestSchemaVersion);
  set("git_describe", git_describe());
  set("default_threads", std::uint64_t{default_thread_count()});
  set("hardware_concurrency", std::uint64_t{std::thread::hardware_concurrency()});
}

void RunManifest::set(const std::string& key, json::JsonValue value) {
  fields_.set(key, std::move(value));
}

void RunManifest::add_phase(const PhaseTiming& phase) {
  for (auto& recorded : phases_) {
    if (recorded.name != phase.name) continue;
    recorded.wall_seconds += phase.wall_seconds;
    recorded.cpu_seconds += phase.cpu_seconds;
    recorded.jobs += phase.jobs;
    return;
  }
  phases_.push_back(phase);
}

RunManifest::PhaseScope::PhaseScope(RunManifest& manifest, std::string name,
                                    std::uint64_t jobs)
    : manifest_(manifest), name_(std::move(name)), jobs_(jobs) {}

RunManifest::PhaseScope::~PhaseScope() {
  manifest_.add_phase({name_, watch_.wall_seconds(), watch_.cpu_seconds(), jobs_});
}

void RunManifest::set_pool_telemetry(const PoolCounters& counters,
                                     const HistogramSnapshot& latency) {
  has_pool_telemetry_ = true;
  pool_counters_ = counters;
  pool_latency_ = latency;
}

json::JsonValue RunManifest::to_json_value() const {
  json::JsonValue doc = fields_;

  auto phases = json::JsonValue::array();
  for (const auto& p : phases_) {
    auto phase = json::JsonValue::object();
    phase.set("name", p.name);
    phase.set("wall_seconds", p.wall_seconds);
    phase.set("cpu_seconds", p.cpu_seconds);
    phase.set("jobs", p.jobs);
    phases.push_back(std::move(phase));
  }
  doc.set("phases", std::move(phases));

  if (has_pool_telemetry_) {
    doc.set("pool", pool_document(pool_counters_));

    auto latency = json::JsonValue::object();
    latency.set("total", pool_latency_.total());
    latency.set("p50_upper", pool_latency_.quantile_upper_us(0.5));
    latency.set("p99_upper", pool_latency_.quantile_upper_us(0.99));
    auto buckets = json::JsonValue::array();
    for (const auto count : pool_latency_.counts) buckets.push_back(count);
    latency.set("log2_buckets", std::move(buckets));
    doc.set("job_latency_us", std::move(latency));
  }
  return doc;
}

std::string RunManifest::to_json() const { return json::dump(to_json_value()); }

void RunManifest::write(const std::string& path) const {
  adc::common::files::write_file(path, to_json());
}

std::optional<std::string> RunManifest::write_to_env_dir() const {
  const char* dir = std::getenv("ADC_RUNTIME_MANIFEST_DIR");
  if (dir == nullptr || *dir == '\0') return std::nullopt;
  std::string path = std::string(dir) + "/" + run_name_ + "_manifest.json";
  write(path);
  return path;
}

}  // namespace adc::runtime
