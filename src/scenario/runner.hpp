/// \file runner.hpp
/// Resumable sweep execution: expand, probe the cache, compute the misses
/// in parallel, report.
///
/// The runner's contract:
///
///   * **Determinism** — jobs are index-keyed and computed through
///     `runtime::parallel_map`, so results are bit-identical at any thread
///     count. The report is built from payloads that round-trip exactly
///     through JSON (common/json.hpp), so a warm run re-emits byte-for-byte
///     what the cold run wrote.
///   * **Resumability** — every completed job is persisted to the cache
///     *before* the batch finishes, so an interrupted run (crash, SIGKILL,
///     `max_jobs` budget) leaves its finished points behind; the next
///     invocation probes the cache, skips them, and computes only the
///     remainder. Resumed results are bit-identical to an uninterrupted run.
///   * **Telemetry** — a RunManifest (runtime/manifest.hpp) records the
///     expand/cache_probe/execute/report phases, the keys every front end
///     shares (stamp_manifest), cache counters and pool telemetry. A fully
///     cached run submits *zero* pool jobs in its
///     execute phase (RunResult::pool_before/pool_after bracket it; the
///     plan runs on the caller, and the probe before it and the report
///     render after it run as chunks of kPlanChunk jobs), which is how CI
///     verifies the 100%-hit re-run.
///   * **Reports** — the run moves its payloads into the report document
///     (build_report's rvalue form) and renders the report's rows in
///     chunks on its own thread count (render_report); each file is
///     written from its parts in order, never joined into one string.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "runtime/manifest.hpp"
#include "runtime/thread_pool.hpp"
#include "scenario/cache.hpp"
#include "scenario/spec.hpp"

namespace adc::scenario {

/// Gate and notification hooks threaded through the execute phase. They are
/// how the fleet worker (src/fleet/) plugs a claim gate
/// (scenario/claims.hpp, `ClaimHolder::gate`) into the shared runner. Both
/// take one execute unit at a time, as plan indices, so a unit's claims are
/// one `ResultCache::try_claim` call:
///
///   * `acquire` is consulted once per unit, immediately before the unit's
///     missed jobs would be computed, with their plan indices. It returns
///     the positions (into that span, ascending) it grants; a declined job
///     is skipped (another process owns it), counted as claimed-elsewhere
///     and left null. Empty = every job is granted.
///   * `stored` fires once per unit, after `execute_unit` has put the
///     unit's pack on disk, with the plan indices of the jobs it computed.
///
/// Both run on pool worker threads and must be thread-safe. Claim state
/// never reaches payload bytes, so reports stay deterministic regardless of
/// which process computes which job. The scenario service gates outside
/// execute_plan: it calls the same `ClaimHolder::gate` on its scheduler
/// thread and then `execute_unit` for one job.
struct ExecuteHooks {
  std::function<std::vector<std::size_t>(std::span<const std::size_t> indices)> acquire;
  std::function<void(std::span<const std::size_t> indices)> stored;
};

/// Options for one scenario run.
struct RunOptions {
  /// Cache root ("" = ADC_SCENARIO_CACHE_DIR, else ".adc-cache").
  std::string cache_dir;
  /// Directory for `<name>_report.json` / `<name>_report.csv` ("" = don't
  /// write report files; the report document is always returned).
  std::string report_dir;
  /// Worker threads (0 = runtime default resolution).
  unsigned threads = 0;
  /// Compute at most this many cache misses, then stop (0 = unlimited).
  /// Simulates interruption deterministically; completed points are cached,
  /// the rest are reported with null metrics.
  std::size_t max_jobs = 0;
  /// Probe/fill the cache (false = force recomputation, nothing stored).
  bool use_cache = true;
};

/// Outcome of one scenario run.
struct RunResult {
  std::size_t jobs_total = 0;
  std::size_t cache_hits = 0;
  std::size_t computed = 0;
  /// Jobs left uncomputed by the `max_jobs` budget.
  std::size_t skipped = 0;
  /// The deterministic report document (no timings or counters, so repeat
  /// runs produce identical bytes).
  adc::common::json::JsonValue report;
  std::string report_json_path;  ///< "" unless report_dir was set
  std::string report_csv_path;   ///< "" unless report_dir was set
  /// Manifest path when ADC_RUNTIME_MANIFEST_DIR is set.
  std::optional<std::string> manifest_path;
  /// Global pool counters observed around the execute phase; equal values
  /// prove a run was served entirely from cache.
  adc::runtime::PoolCounters pool_before;
  adc::runtime::PoolCounters pool_after;
  /// Session cache counters (hits/misses/evictions/stores) for this run.
  std::uint64_t cache_evictions = 0;
};

/// Where a run's payloads came from; each job is counted once, so
/// `jobs_total = cache_hits + computed + elsewhere + skipped`.
struct RunTally {
  std::size_t jobs_total = 0;
  std::size_t cache_hits = 0;  ///< in the cache when the run first looked
  std::size_t computed = 0;    ///< computed by this run
  std::size_t skipped = 0;     ///< left uncomputed (max_jobs budget)
  /// Computed meanwhile by another fleet worker or process on the cache
  /// root, or for an identical cell of another service request.
  std::size_t elsewhere = 0;
};

/// Stamp the identity keys (`scenario`, `spec_hash`, `fingerprint`,
/// `fidelity`, `cache_dir`, `first_seed`, `seed_count`) and the tally keys
/// every scenario front end's manifest shares: the one builder of them for
/// the runner, the fleet worker and merge, and the scenario service.
void stamp_manifest(adc::runtime::RunManifest& manifest, const ScenarioSpec& spec,
                    const std::string& spec_hash, const std::string& cache_root,
                    const RunTally& tally);

/// One scenario expanded to its executable shape: the grid points, one
/// content-address per point, and the spec identity. This is the single
/// planner entry point shared by batch execution (ScenarioRunner::run) and
/// the scenario service (src/service/): both plan through here, so a job
/// scheduled by the daemon is content-addressed exactly as the CLI would
/// address it and the two share every cache entry.
struct ScenarioPlan {
  std::vector<JobPoint> jobs;
  /// job_hash(resolve_job(spec, jobs[i])), aligned with `jobs`.
  std::vector<std::string> hashes;
  /// spec_hash(spec) — the request-level identity.
  std::string spec_hash;
};

/// Plan positions per chunk of the per-job passes around execution:
/// probing the cache (probe_cache) and rendering the report rows
/// (render_report). Each chunk is one pool job; a pass of one chunk runs on
/// the caller and submits nothing.
inline constexpr std::size_t kPlanChunk = 64;

/// Expand the sweep grid and content-address every job, on the caller's
/// thread. Each grid point's jobs differ only in their seed, so the point's
/// job text is rendered once and its jobs are keyed through one
/// JobHashTemplate (hash.hpp): each hash equals job_hash(resolve_job(spec,
/// job)). Throws ConfigError on invalid specs (the same validation surface
/// as expand_jobs), with the error the lowest failing job throws.
[[nodiscard]] ScenarioPlan plan_scenario(const ScenarioSpec& spec);

/// Fill every empty slot of `payloads` that `candidate` admits (null =
/// every slot) from `cache`, and return how many were filled. The slots
/// are loaded by chunks of kPlanChunk consecutive plan positions, one
/// `ResultCache::load` call per chunk, on `threads` workers (0 = runtime
/// default resolution, 1 = on the caller); `candidate` is called on the
/// caller's thread. The cache probe shared by ScenarioRunner::run, the
/// fleet worker, the fleet merge and `fleet_status`.
std::size_t probe_cache(const ScenarioPlan& plan, ResultCache& cache,
                        std::vector<std::optional<adc::common::json::JsonValue>>& payloads,
                        const std::function<bool(std::size_t index)>& candidate,
                        unsigned threads);

/// Build the deterministic report document from a plan and its payloads
/// (index-aligned; nullopt = not computed, reported as null metrics). No
/// timings or counters, so any two complete executions of the same spec —
/// cold, warm, resumed, batch or served — emit byte-identical reports.
/// This form copies every payload into the report; only bench/e2e (its
/// traced replay and served-report check) calls it.
[[nodiscard]] adc::common::json::JsonValue build_report(
    const ScenarioSpec& spec, const ScenarioPlan& plan,
    const std::vector<std::optional<adc::common::json::JsonValue>>& payloads);

/// The same report, with each payload moved into its row instead of copied
/// (`payloads` is left holding moved-from values). For a caller done with
/// its payloads: ScenarioRunner::run, the fleet merge and the scenario
/// service.
[[nodiscard]] adc::common::json::JsonValue build_report(
    const ScenarioSpec& spec, const ScenarioPlan& plan,
    std::vector<std::optional<adc::common::json::JsonValue>>&& payloads);

/// Render the CSV form of a report document (axis columns, seed, then the
/// metric columns of the first computed payload; rows with null metrics are
/// skipped). Derives everything from the report itself so remote clients
/// reproduce the batch CLI's CSV byte-for-byte. The one-thread walk of the
/// row writer render_report runs in chunks.
[[nodiscard]] std::string report_csv(const adc::common::json::JsonValue& report);

/// A report's two files as parts to write in order, never joined: `json`
/// joins to `json::dump(report)` and `csv` to `report_csv(report)`.
struct ReportText {
  std::vector<std::string> json;  ///< frame head, one part per chunk, frame tail
  std::vector<std::string> csv;   ///< header, then one part per chunk
};

/// Render a report (a build_report document) for its files. The `results`
/// rows are cut into chunks of kPlanChunk rows, each one pool job on
/// `threads` workers (0 = runtime default resolution, 1 = on the caller)
/// that writes its rows' pretty JSON (json::append_item) and CSV lines.
/// The text around the rows comes from json::array_frame. A report of one
/// chunk renders on the caller and submits nothing. Every part is a pure
/// function of its rows, so the bytes do not depend on the thread count.
/// Throws ConfigError for a document that is no scenario report, with the
/// error the lowest failing row throws.
[[nodiscard]] ReportText render_report(const adc::common::json::JsonValue& report,
                                       unsigned threads);

/// Write `<name>_report.json` and `<name>_report.csv` into `dir` (created
/// if needed) and return the two paths. The report is rendered by
/// render_report on `threads` workers (a caller that names no count
/// renders on its own thread), and each file is written whole from its
/// parts through common/files. One writer shared by the batch runner, the
/// fleet merge and `adc_scenario client submit`, so their files are
/// byte-identical by construction.
struct ReportPaths {
  std::string json_path;
  std::string csv_path;
};
ReportPaths write_report_files(const adc::common::json::JsonValue& report,
                               const std::string& name, const std::string& dir,
                               unsigned threads = 1);

/// Options of the shared execute phase (see execute_plan).
struct ExecuteOptions {
  /// Worker threads (0 = runtime default resolution).
  unsigned threads = 0;
  /// Compute at most this many jobs (0 = unlimited); the remainder is
  /// reported in ExecuteOutcome::skipped.
  std::size_t max_jobs = 0;
  /// When set, every computed payload is persisted here before the batch
  /// completes (the resume guarantee). Null = compute only.
  ResultCache* cache = nullptr;
  /// Restrict execution to a subset of the plan (a fleet worker's shard);
  /// null = every missing payload is a candidate. Called on the caller's
  /// thread during unit formation.
  std::function<bool(std::size_t index)> candidate;
  /// Claim gate + store notification (see ExecuteHooks).
  ExecuteHooks hooks;
};

/// Tally of one execute_plan call.
struct ExecuteOutcome {
  std::size_t computed = 0;
  std::size_t skipped = 0;            ///< left for later by the max_jobs budget
  std::size_t claimed_elsewhere = 0;  ///< declined by hooks.acquire
};

/// Compute the jobs at plan `indices` as one execute unit and persist them
/// through `cache` (when non-null) as one pack before returning; one payload
/// per index, in order. A single-tone dynamic or yield unit goes whole to
/// testbench::run_dynamic_test_block, which alone decides which of its dies
/// batch through the SoA engine and which convert die by die; any other
/// unit runs job by job through ScenarioRunner::execute_job. The engine's
/// contract makes every path emit the bytes execute_job would. Any indices
/// are valid: the unit need not be one execute_plan formed. Runs on the
/// calling thread and submits nothing to the pool, so a pool worker may call
/// it. The per-unit body of execute_plan, and the scenario service's
/// executor. Throws what the computation or the store throws.
[[nodiscard]] std::vector<adc::common::json::JsonValue> execute_unit(
    const ScenarioSpec& spec, const ScenarioPlan& plan, std::span<const std::size_t> indices,
    ResultCache* cache);

/// Compute the plan's missing payloads in place: every index where
/// `payloads[i]` is empty and `candidate(i)` holds is grouped into execute
/// units, computed on the shared pool, and written back to `payloads[i]`,
/// each unit through execute_unit, which persists it through `cache` as it
/// completes. A single-tone unit holds up to adc::batch::unit_lanes
/// consecutive misses whose resolved dies share a batch block
/// (adc::batch::BatchConverter::shares_block) with its first; every other
/// unit is one job. This is the execute path shared by ScenarioRunner::run
/// and the fleet worker (src/fleet/worker.cpp); the scenario service calls
/// execute_unit directly. A sharded multi-process sweep, a served request
/// and a single-process run therefore compute exactly the same bytes.
ExecuteOutcome execute_plan(const ScenarioSpec& spec, const ScenarioPlan& plan,
                            std::vector<std::optional<adc::common::json::JsonValue>>& payloads,
                            const ExecuteOptions& options);

/// Expands, executes and reports scenarios. Stateless between runs apart
/// from the on-disk cache.
class ScenarioRunner {
 public:
  explicit ScenarioRunner(RunOptions options = {});

  /// Run one scenario end-to-end. Throws ConfigError/MeasurementError on
  /// invalid specs or I/O failure.
  [[nodiscard]] RunResult run(const ScenarioSpec& spec);

  /// Execute one resolved job immediately (no cache); the payload that
  /// would be stored. The scalar path of execute_unit, also used by tests
  /// and the CLI.
  [[nodiscard]] static adc::common::json::JsonValue execute_job(const ResolvedJob& job);

 private:
  RunOptions options_;
};

}  // namespace adc::scenario
