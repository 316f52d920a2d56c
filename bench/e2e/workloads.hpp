/// \file workloads.hpp
/// The five end-to-end workloads of adc_bench, each run in a child process
/// of its own, plus the layer metrics its traced run reports.
///
///   yield-cold    fast-profile yield over 2000 dies, emptied cache per run
///   yield-warm    the same spec on a filled cache: the pure cache path
///   sweep-scalar  64 rates x 3 seeds: every unit below kMinBatchDies
///   fleet-w2      the yield-cold spec through 2 fleet worker processes
///   served-mix    an in-process ScenarioService with three tenants
///
/// The seed only generates inputs (seed ranges, request ids). With seed 42
/// the yield spec is exactly scenarios/yield2k.json.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "trace.hpp"

namespace adc_bench {

enum class Workload { kYieldCold, kYieldWarm, kSweepScalar, kFleetW2, kServedMix };

inline constexpr std::array<Workload, 5> kAllWorkloads{
    Workload::kYieldCold, Workload::kYieldWarm, Workload::kSweepScalar, Workload::kFleetW2,
    Workload::kServedMix};

[[nodiscard]] const char* workload_name(Workload w);
[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);

/// Settings a workload child runs with (all derived from the parent's
/// command line; the child never reads anything else).
struct ChildOptions {
  std::uint64_t seed = 42;
  double seconds = 10.0;   ///< measurement window
  bool quick = false;      ///< reduced sizes for the smoke test
  unsigned threads = 1;    ///< pool width of this process (bench_threads())
  bool traced = false;     ///< replay through public calls with spans
  bool setup_only = false; ///< stop once ready (set-up time samples)
  int ready_fd = -1;       ///< signalled once the first job is submittable
};

/// Run one workload in this process (its working directory is the child's
/// scratch directory). Returns the result document the parent reads:
///
///   attempted, failed, failures[]   correctness accounting
///   request_ms[]                    latencies of the workload's requests
///   report_digest                   the report every run must reproduce
///   details{}                       served-mix: per-tenant samples in ms
///                                   (ttfc_ms, hit_done_ms, big_done_ms)
///   layers{}                        traced runs: the layer metrics
[[nodiscard]] adc::common::json::JsonValue run_workload(Workload w, const ChildOptions& options);

/// One fleet worker process: run shard `shard` of the fleet workload's
/// shards of the yield spec against `cache_dir`, writing {wall_s, start_ns,
/// end_ns} of run_worker to `result_path`. Returns the process exit code.
int run_fleet_worker(const ChildOptions& options, unsigned shard, const std::string& cache_dir,
                     const std::string& result_path);

/// Layer metrics of a traced run, in output order, with their units.
struct LayerMetric {
  const char* name;
  const char* unit;
};
[[nodiscard]] const std::vector<LayerMetric>& layer_metric_catalog();

// --- shared by the workload implementations ---------------------------------

/// The served tenants' spec shapes: the fast-profile yield spec (A) and the
/// exact-profile `smoke` shape (B cold, C warm). `first_seed` is the first
/// die seed of the request.
[[nodiscard]] adc::common::json::JsonValue served_yield_doc(std::uint64_t first_seed,
                                                            std::uint64_t dies);
[[nodiscard]] adc::common::json::JsonValue smoke_doc(const std::string& name,
                                                     std::uint64_t first_seed);

/// Layer metrics of one traced rep, and their medians over the reps.
using LayerValues = std::map<std::string, double>;
[[nodiscard]] adc::common::json::JsonValue median_layers(const std::vector<LayerValues>& reps);

/// Times the batch engine's dispatched noise fill over one kLanes-wide
/// capture of the spec's shape and adds common.fill_ns_per_deviate, plus
/// the fill/chain split of each rep's batch conversions, to every rep.
void add_fill_metrics(std::vector<LayerValues>& reps,
                      const adc::common::json::JsonValue& spec_doc);

/// Correctness accounting: every checked operation counts as attempted,
/// and as failed when its check does not hold.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  adc::common::json::JsonValue failures = adc::common::json::JsonValue::array();

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (failures.items().size() < 20) failures.push_back(what);
    }
  }
  /// Copy the accounting into a result document.
  void write(adc::common::json::JsonValue& out) const {
    out.set("attempted", attempted);
    out.set("failed", failed);
    out.set("failures", failures);
  }
};

/// How long a child measures: the parent's window, nothing beyond the
/// minimum repetitions in quick mode. A traced child spends it on traced
/// and untraced runs alternately.
[[nodiscard]] inline double window_seconds(const ChildOptions& o) {
  return o.quick ? 0.0 : o.seconds;
}

/// Tracing overhead from back-to-back pairs of the same run, traced and
/// untraced: the median of their wall ratios, minus 1. A pair shares one
/// stretch of the machine's drift, which a ratio of two runs' medians does not.
[[nodiscard]] double paired_overhead(const std::vector<double>& traced_ms,
                                     const std::vector<double>& untraced_ms);

[[nodiscard]] adc::common::json::JsonValue to_array(const std::vector<double>& values);

/// The in-process service workload (served.cpp).
[[nodiscard]] adc::common::json::JsonValue run_served_mix(const ChildOptions& options);

/// One traced replay of ScenarioRunner::run through public calls
/// (replay.cpp): report bytes, wall, layer metrics, and the spans.
struct ReplayResult {
  std::string report_bytes;
  double wall_s = 0.0;
  LayerValues layers;
  std::vector<SpanRecord> spans;
};
[[nodiscard]] ReplayResult replay_run(const adc::common::json::JsonValue& spec_doc,
                                      const std::string& cache_root,
                                      const std::string& report_dir, unsigned threads,
                                      std::uint64_t request);

}  // namespace adc_bench
