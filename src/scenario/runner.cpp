#include "scenario/runner.hpp"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <numeric>
#include <type_traits>
#include <utility>
#include <vector>

#include "batch/converter.hpp"
#include "common/error.hpp"
#include "common/files.hpp"
#include "pipeline/design.hpp"
#include "power/power_model.hpp"
#include "runtime/manifest.hpp"
#include "runtime/parallel.hpp"
#include "scenario/hash.hpp"
#include "testbench/dynamic_test.hpp"
#include "testbench/static_test.hpp"
#include "testbench/two_tone.hpp"

namespace adc::scenario {

namespace fs = std::filesystem;
namespace json = adc::common::json;

namespace {

/// Options of the single-tone bench for a resolved job — shared by the
/// per-job path and the batched die-block path so both measure the exact
/// same tone.
adc::testbench::DynamicTestOptions dynamic_options(const ResolvedJob& job) {
  adc::testbench::DynamicTestOptions options;
  options.record_length = job.stimulus.record_length;
  // Mirror the rate-sweep benches: keep the tone inside the capped band as
  // the conversion rate drops below twice the requested input frequency.
  const double fin_cap = job.stimulus.max_fin_fraction * job.config.conversion_rate / 2.0;
  options.target_fin_hz = std::min(job.stimulus.frequency_hz, fin_cap);
  options.amplitude_fraction = job.stimulus.amplitude_fraction;
  return options;
}

/// Payload of a dynamic measurement. One builder for the scalar and batched
/// paths: identical key order, identical doubles, identical cache bytes.
json::JsonValue dynamic_payload(const adc::testbench::DynamicTestResult& result) {
  auto payload = json::JsonValue::object();
  payload.set("tone_hz", result.tone.frequency_hz);
  payload.set("snr_db", result.metrics.snr_db);
  payload.set("sndr_db", result.metrics.sndr_db);
  payload.set("sfdr_db", result.metrics.sfdr_db);
  payload.set("thd_db", result.metrics.thd_db);
  payload.set("enob", result.metrics.enob);
  return payload;
}

json::JsonValue run_dynamic(const ResolvedJob& job) {
  adc::pipeline::PipelineAdc adc(job.config);
  const auto result = adc::testbench::run_dynamic_test(adc, dynamic_options(job));
  return dynamic_payload(result);
}

json::JsonValue run_two_tone(const ResolvedJob& job) {
  adc::pipeline::PipelineAdc adc(job.config);
  adc::testbench::TwoToneOptions options;
  options.record_length = job.stimulus.record_length;
  const double fin_cap = job.stimulus.max_fin_fraction * job.config.conversion_rate / 2.0;
  options.center_hz = std::min(job.stimulus.frequency_hz, fin_cap);
  options.spacing_hz = job.stimulus.spacing_hz;
  options.amplitude_fraction = job.stimulus.amplitude_fraction;
  const auto result = adc::testbench::run_two_tone_test(adc, options);

  auto payload = json::JsonValue::object();
  payload.set("f1_hz", result.f1_hz);
  payload.set("f2_hz", result.f2_hz);
  payload.set("tone_power_db", result.tone_power_db);
  payload.set("imd3_low_dbc", result.imd3_low_dbc);
  payload.set("imd3_high_dbc", result.imd3_high_dbc);
  payload.set("imd2_dbc", result.imd2_dbc);
  payload.set("worst_imd_dbc", result.worst_imd_dbc);
  return payload;
}

json::JsonValue run_static(const ResolvedJob& job) {
  adc::pipeline::PipelineAdc adc(job.config);
  adc::testbench::HistogramTestOptions options;
  options.samples = job.measurement.samples;
  const auto result = adc::testbench::run_histogram_test(adc, options);

  auto payload = json::JsonValue::object();
  payload.set("dnl_min", result.dnl_min);
  payload.set("dnl_max", result.dnl_max);
  payload.set("inl_min", result.inl_min);
  payload.set("inl_max", result.inl_max);
  payload.set("missing_codes", static_cast<std::uint64_t>(result.missing_codes.size()));
  payload.set("sample_count", static_cast<std::uint64_t>(result.sample_count));
  return payload;
}

json::JsonValue run_power(const ResolvedJob& job) {
  adc::pipeline::PipelineAdc adc(job.config);
  const adc::power::PowerModel model(adc::pipeline::nominal_power_spec());
  const auto breakdown = model.estimate(adc);

  auto payload = json::JsonValue::object();
  payload.set("pipeline_analog_w", breakdown.pipeline_analog);
  payload.set("bias_generator_w", breakdown.bias_generator);
  payload.set("reference_buffer_w", breakdown.reference_buffer);
  payload.set("bandgap_cm_w", breakdown.bandgap_cm);
  payload.set("comparators_w", breakdown.comparators);
  payload.set("digital_w", breakdown.digital);
  payload.set("total_w", breakdown.total());
  return payload;
}

void append_csv_cell(std::string& csv, const json::JsonValue& value) {
  switch (value.type()) {
    case json::JsonValue::Type::kDouble:
    case json::JsonValue::Type::kInt:
    case json::JsonValue::Type::kUint: json::append_number(csv, value); return;
    case json::JsonValue::Type::kString: csv += value.as_string(); return;
    case json::JsonValue::Type::kBool: csv += value.as_bool() ? "true" : "false"; return;
    default: return;
  }
}

/// A run of consecutive candidate cache misses the execute phase computes
/// as one pool job. Single-tone units hold up to adc::batch::unit_lanes jobs
/// whose dies share a batch block (BatchConverter::shares_block) and reach
/// the engine through run_dynamic_test_block, one job per lane.
struct MissUnit {
  std::size_t first = 0;  ///< position in the misses vector
  std::size_t count = 1;
};

/// True when the spec measures a single tone (dynamic or yield over a tone
/// stimulus): the measurements run_dynamic_test_block computes, batched or
/// die by die as the dies allow.
bool single_tone(const ScenarioSpec& spec) {
  const bool dynamic_measurement = spec.measurement.type == MeasurementSpec::Type::kDynamic ||
                                   spec.measurement.type == MeasurementSpec::Type::kYield;
  return dynamic_measurement && spec.stimulus.type == StimulusSpec::Type::kTone;
}

/// Run `body(c)` for each chunk c < `chunks` as index-keyed parallel_map
/// jobs on `threads` (0 = runtime resolution); one chunk, one thread or a
/// pool worker's call runs them on the caller. No chunk cancels another:
/// each runs to its end or its first throw, and the lowest throwing chunk's
/// exception is rethrown, so a body that walks its positions in order
/// fails with the error a serial walk over all positions meets first.
template <typename Body>
void for_each_chunk(std::size_t chunks, unsigned threads, Body&& body) {
  adc::runtime::BatchOptions batch;
  batch.threads = threads;
  const auto errors = adc::runtime::parallel_map<std::exception_ptr>(
      chunks,
      [&](std::size_t c) -> std::exception_ptr {
        try {
          body(c);
        } catch (...) {
          return std::current_exception();
        }
        return nullptr;
      },
      batch);
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

/// The yield summary of a complete yield report's rows (nullopt when the
/// spec is no yield, or a row's metrics are null): the metric's mean, range
/// and pass count over every row.
std::optional<json::JsonValue> yield_summary(const ScenarioSpec& spec,
                                             const json::JsonValue::Array& rows) {
  if (spec.measurement.type != MeasurementSpec::Type::kYield || rows.empty()) {
    return std::nullopt;
  }
  for (const auto& row : rows) {
    if (row.find("metrics")->is_null()) return std::nullopt;
  }
  const std::string& metric = spec.measurement.metric;
  double sum = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  std::uint64_t passing = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto* value = rows[i].find("metrics")->find(metric);
    adc::common::require(value != nullptr && value->is_number(),
                         "build_report: payload lacks yield metric \"" + metric + "\"");
    const double x = value->as_double();
    if (i == 0) {
      lo = x;
      hi = x;
    }
    sum += x;
    lo = std::min(lo, x);
    hi = std::max(hi, x);
    if (x >= spec.measurement.limit) ++passing;
  }
  auto summary = json::JsonValue::object();
  summary.set("metric", metric);
  summary.set("limit", spec.measurement.limit);
  summary.set("mean", sum / static_cast<double>(rows.size()));
  summary.set("min", lo);
  summary.set("max", hi);
  summary.set("passing", passing);
  summary.set("yield_fraction",
              static_cast<double>(passing) / static_cast<double>(rows.size()));
  return summary;
}

/// A report's CSV layout: the sweep axes, then seed, then the metric keys
/// of the first computed payload in insertion order; and the rows.
struct CsvLayout {
  const json::JsonValue::Array* axes = nullptr;
  const json::JsonValue::Array* rows = nullptr;
  std::vector<std::string> metrics;
  const json::JsonValue* first_computed = nullptr;  ///< the row the metrics come from
};

CsvLayout csv_layout(const json::JsonValue& report) {
  const auto* axes = report.find("axes");
  const auto* results = report.find("results");
  adc::common::require(axes != nullptr && axes->is_array() && results != nullptr &&
                           results->is_array(),
                       "report_csv: not a scenario report document");
  CsvLayout layout;
  layout.axes = &axes->items();
  layout.rows = &results->items();
  for (const auto& row : results->items()) {
    const auto* metrics = row.find("metrics");
    if (metrics != nullptr && metrics->is_object()) {
      for (const auto& member : metrics->members()) layout.metrics.push_back(member.key);
      layout.first_computed = &row;
      break;
    }
  }
  return layout;
}

std::string csv_header(const CsvLayout& layout) {
  std::string csv;
  for (const auto& axis : *layout.axes) csv += axis.as_string() + ",";
  csv += "seed";
  for (const auto& key : layout.metrics) csv += "," + key;
  csv += "\n";
  return csv;
}

/// The one CSV row writer: one line for a row with metrics, nothing for a
/// row whose metrics are null (not computed).
void append_csv_row(std::string& csv, const CsvLayout& layout, const json::JsonValue& row) {
  const auto* metrics = row.find("metrics");
  if (metrics == nullptr || metrics->is_null()) return;
  const auto* point = row.find("point");
  for (const auto& axis : *layout.axes) {
    const auto* value = point != nullptr ? point->find(axis.as_string()) : nullptr;
    adc::common::require(value != nullptr, "report_csv: row lacks axis value");
    json::append_double(csv, value->as_double());
    csv += ',';
  }
  char seed[24];
  const std::uint64_t seed_value = row.find("seed")->as_uint64();
  csv.append(seed, std::to_chars(seed, seed + sizeof seed, seed_value).ptr);
  for (const auto& key : layout.metrics) {
    const auto* value = metrics->find(key);
    csv += ',';
    if (value != nullptr) append_csv_cell(csv, *value);
  }
  csv += '\n';
}

/// build_report's document. A const `Payloads` is copied into the rows; a
/// mutable one is moved into them and left holding moved-from values.
template <typename Payloads>
json::JsonValue report_document(const ScenarioSpec& spec, const ScenarioPlan& plan,
                                Payloads& payloads) {
  adc::common::require(payloads.size() == plan.jobs.size(),
                       "build_report: payloads not aligned with the plan");
  auto report = json::JsonValue::object();
  report.set("scenario", spec.name);
  if (!spec.description.empty()) report.set("description", spec.description);
  report.set("schema_version", kScenarioSchemaVersion);
  report.set("spec_hash", plan.spec_hash);
  report.set("fingerprint", to_hex(golden_code_fingerprint()));
  report.set("measurement", std::string(to_string(spec.measurement.type)));
  report.set("fidelity", std::string(adc::common::to_string(spec.die.fidelity)));
  auto axes = json::JsonValue::array();
  for (const auto& axis : spec.sweep) axes.push_back(axis.key);
  report.set("axes", std::move(axes));
  report.set("jobs", static_cast<std::uint64_t>(plan.jobs.size()));

  auto results = json::JsonValue::array();
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    auto row = json::JsonValue::object();
    row.set("hash", plan.hashes[i]);
    row.set("seed", plan.jobs[i].seed);
    auto point = json::JsonValue::object();
    for (std::size_t a = 0; a < spec.sweep.size(); ++a) {
      point.set(spec.sweep[a].key, plan.jobs[i].axis_values[a]);
    }
    row.set("point", std::move(point));
    if (!payloads[i].has_value()) {
      row.set("metrics", json::JsonValue());
    } else if constexpr (std::is_const_v<Payloads>) {
      row.set("metrics", *payloads[i]);
    } else {
      row.set("metrics", std::move(*payloads[i]));
    }
    results.push_back(std::move(row));
  }
  std::optional<json::JsonValue> summary = yield_summary(spec, results.items());
  report.set("results", std::move(results));
  if (summary.has_value()) report.set("summary", std::move(*summary));
  return report;
}

}  // namespace

ScenarioPlan plan_scenario(const ScenarioSpec& spec, unsigned threads) {
  ScenarioPlan plan;
  plan.spec_hash = spec_hash(spec);
  plan.jobs = expand_jobs(spec);
  const std::size_t n = plan.jobs.size();
  plan.hashes.resize(n);
  for_each_chunk((n + kPlanChunk - 1) / kPlanChunk, threads, [&](std::size_t c) {
    for (std::size_t i = c * kPlanChunk; i < std::min(n, (c + 1) * kPlanChunk); ++i) {
      plan.hashes[i] = job_hash(resolve_job(spec, plan.jobs[i]));
    }
  });
  return plan;
}

std::size_t probe_cache(const ScenarioPlan& plan, ResultCache& cache,
                        std::vector<std::optional<json::JsonValue>>& payloads,
                        const std::function<bool(std::size_t index)>& candidate,
                        unsigned threads) {
  adc::common::require(payloads.size() == plan.jobs.size(),
                       "probe_cache: payloads not aligned with the plan");
  // The slots to fill, grouped by the plan chunk they fall in; a chunk with
  // none submits nothing.
  std::vector<std::size_t> wanted;
  std::vector<std::size_t> starts;  // chunk c's slots: wanted[starts[c], starts[c + 1])
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    if (payloads[i].has_value() || (candidate && !candidate(i))) continue;
    if (starts.empty() || i / kPlanChunk != wanted.back() / kPlanChunk) {
      starts.push_back(wanted.size());
    }
    wanted.push_back(i);
  }
  starts.push_back(wanted.size());
  std::vector<std::size_t> filled(starts.size() - 1, 0);
  for_each_chunk(filled.size(), threads, [&](std::size_t c) {
    const std::span<const std::size_t> slots(wanted.data() + starts[c],
                                             starts[c + 1] - starts[c]);
    std::vector<std::string> names;
    names.reserve(slots.size());
    for (const std::size_t i : slots) names.push_back(plan.hashes[i]);
    auto loaded = cache.load(names);
    for (std::size_t k = 0; k < slots.size(); ++k) {
      if (!loaded[k].has_value()) continue;
      payloads[slots[k]] = std::move(loaded[k]);
      ++filled[c];
    }
  });
  return std::accumulate(filled.begin(), filled.end(), std::size_t{0});
}

json::JsonValue build_report(const ScenarioSpec& spec, const ScenarioPlan& plan,
                             std::vector<std::optional<json::JsonValue>>&& payloads) {
  return report_document(spec, plan, payloads);
}

json::JsonValue build_report(const ScenarioSpec& spec, const ScenarioPlan& plan,
                             const std::vector<std::optional<json::JsonValue>>& payloads) {
  return report_document(spec, plan, payloads);
}

std::string report_csv(const json::JsonValue& report) {
  const CsvLayout layout = csv_layout(report);
  std::string csv = csv_header(layout);
  for (const auto& row : *layout.rows) append_csv_row(csv, layout, row);
  return csv;
}

ReportText render_report(const json::JsonValue& report, unsigned threads) {
  const CsvLayout layout = csv_layout(report);
  const json::JsonValue::Array& rows = *layout.rows;
  json::ArrayFrame frame = json::array_frame(report, "results");
  const std::size_t chunks = (rows.size() + kPlanChunk - 1) / kPlanChunk;
  ReportText text;
  text.json.resize(chunks + 2);
  text.csv.resize(chunks + 1);
  text.json.front() = std::move(frame.head);
  text.json.back() = std::move(frame.tail);
  text.csv.front() = csv_header(layout);
  // Every part is reserved here, on the caller, for its rows at the size of
  // a sample row plus a quarter: a buffer that a chunk job grows lands on
  // that pool thread's own heap, which kept a warm yield2k run's peak RSS
  // about 1.6 MB higher.
  if (chunks != 0) {
    const json::JsonValue& sample =
        layout.first_computed != nullptr ? *layout.first_computed : rows.front();
    std::string json_row;
    std::string csv_row;
    json::append_item(json_row, sample, json::kMemberItemDepth, false);
    append_csv_row(csv_row, layout, sample);
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t n = std::min(rows.size(), (c + 1) * kPlanChunk) - c * kPlanChunk;
      text.json[c + 1].reserve(n * json_row.size() * 5 / 4);
      text.csv[c + 1].reserve(n * csv_row.size() * 5 / 4);
    }
  }
  for_each_chunk(chunks, threads, [&](std::size_t c) {
    std::string& json_part = text.json[c + 1];
    std::string& csv_part = text.csv[c + 1];
    for (std::size_t i = c * kPlanChunk; i < std::min(rows.size(), (c + 1) * kPlanChunk); ++i) {
      json::append_item(json_part, rows[i], json::kMemberItemDepth, i == 0);
      append_csv_row(csv_part, layout, rows[i]);
    }
  });
  return text;
}

ReportPaths write_report_files(const json::JsonValue& report, const std::string& name,
                               const std::string& dir, unsigned threads) {
  const ReportText text = render_report(report, threads);
  std::error_code ec;
  fs::create_directories(dir, ec);
  adc::common::require(!ec, "write_report_files: cannot create " + dir);
  const auto write = [](const std::string& path, const std::vector<std::string>& parts) {
    const std::vector<std::string_view> views(parts.begin(), parts.end());
    adc::common::files::write_file(path, views);
  };
  ReportPaths paths;
  paths.json_path = dir + "/" + name + "_report.json";
  write(paths.json_path, text.json);
  paths.csv_path = dir + "/" + name + "_report.csv";
  write(paths.csv_path, text.csv);
  return paths;
}

std::vector<json::JsonValue> execute_unit(const ScenarioSpec& spec, const ScenarioPlan& plan,
                                          std::span<const std::size_t> indices,
                                          ResultCache* cache) {
  std::vector<json::JsonValue> out;
  if (indices.empty()) return out;
  out.reserve(indices.size());
  if (single_tone(spec)) {
    // Every job of a spec has one record length and one set of spectrum
    // options; each die carries its own tone request.
    std::vector<adc::testbench::DieTest> dies;
    dies.reserve(indices.size());
    adc::testbench::DynamicTestOptions options;
    for (const std::size_t i : indices) {
      const ResolvedJob job = resolve_job(spec, plan.jobs[i]);
      options = dynamic_options(job);
      dies.push_back({job.config, options.target_fin_hz, options.amplitude_fraction});
    }
    const auto results = adc::testbench::run_dynamic_test_block(dies, options);
    for (const auto& result : results) out.push_back(dynamic_payload(result));
  } else {
    for (const std::size_t i : indices) {
      out.push_back(ScenarioRunner::execute_job(resolve_job(spec, plan.jobs[i])));
    }
  }
  // One pack per unit, stored before the caller hears of it: a claimant
  // releases a claim only once its job is on disk.
  if (cache != nullptr) {
    std::vector<CacheEntry> entries;
    entries.reserve(indices.size());
    for (std::size_t m = 0; m < indices.size(); ++m) {
      entries.push_back({plan.hashes[indices[m]], out[m]});
    }
    cache->store(entries);
  }
  return out;
}

ExecuteOutcome execute_plan(const ScenarioSpec& spec, const ScenarioPlan& plan,
                            std::vector<std::optional<json::JsonValue>>& payloads,
                            const ExecuteOptions& options) {
  adc::common::require(payloads.size() == plan.jobs.size(),
                       "execute_plan: payloads not aligned with the plan");
  const std::vector<JobPoint>& jobs = plan.jobs;
  ExecuteOutcome outcome;

  // Candidates: every missing payload the caller admits (a fleet worker
  // passes its shard membership here; the batch runner passes nothing).
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (payloads[i].has_value()) continue;
    if (options.candidate && !options.candidate(i)) continue;
    misses.push_back(i);
  }

  // Apply the interruption budget: completed points stay cached, the rest
  // are left for the next invocation.
  if (options.max_jobs != 0 && misses.size() > options.max_jobs) {
    outcome.skipped = misses.size() - options.max_jobs;
    misses.resize(options.max_jobs);
  }

  // Group the misses into execute units. For single-tone dynamic/yield
  // sweeps, up to `lanes` consecutive misses whose dies share a batch block
  // with the unit's first (BatchConverter::shares_block: fast profile, and
  // differing only in seed and conversion rate; the tone is per lane) form
  // one unit: the widest kernel pass that still leaves every pool worker a
  // unit. A rate or input-frequency sweep therefore batches across grid
  // points; a temperature or supply sweep, or the exact profile, does not.
  // Grouping resolves each miss once and keeps only the unit's first
  // configuration. Everything else (two-tone, static, power) stays one job
  // per unit.
  std::vector<MissUnit> units;
  units.reserve(misses.size());
  if (single_tone(spec)) {
    const std::size_t lanes = adc::batch::unit_lanes(
        misses.size(), adc::runtime::effective_thread_count(options.threads));
    adc::pipeline::AdcConfig head;
    for (std::size_t k = 0; k < misses.size(); ++k) {
      adc::pipeline::AdcConfig config = resolve_job(spec, jobs[misses[k]]).config;
      if (!units.empty() && units.back().count < lanes &&
          adc::batch::BatchConverter::shares_block(config, head)) {
        ++units.back().count;
      } else {
        units.push_back({k, 1});
        head = std::move(config);
      }
    }
  } else {
    for (std::size_t k = 0; k < misses.size(); ++k) units.push_back({k, 1});
  }

  // Compute the units in parallel, one pool job each. Each unit persists
  // its payloads as one cache pack before the batch completes, which is
  // what makes interrupted runs resumable. Units are index-keyed pure
  // functions, so results stay bit-identical at any thread count; the
  // batch engine's own contract keeps them bit-identical to the per-job
  // path. The claim gate (hooks.acquire) runs once per unit, immediately
  // before its jobs would be computed, so a claim is held only while its
  // job is actually in flight.
  if (!units.empty()) {
    adc::runtime::BatchOptions batch;
    batch.threads = options.threads;
    auto computed = adc::runtime::parallel_map<std::vector<std::optional<json::JsonValue>>>(
        units.size(),
        [&](std::size_t u) {
          const MissUnit& unit = units[u];
          std::vector<std::optional<json::JsonValue>> out(unit.count);
          // Claim the unit's jobs in one call; unclaimed slots stay null and
          // are left to the owner that holds them.
          std::vector<std::size_t> indices(unit.count);
          for (std::size_t t = 0; t < unit.count; ++t) indices[t] = misses[unit.first + t];
          std::vector<std::size_t> mine;
          if (options.hooks.acquire) {
            mine = options.hooks.acquire(indices);
            for (std::size_t m = 0; m < mine.size(); ++m) {
              adc::common::require(mine[m] < unit.count && (m == 0 || mine[m - 1] < mine[m]),
                                   "execute_plan: acquire must grant ascending unit positions");
            }
          } else {
            mine.resize(unit.count);
            std::iota(mine.begin(), mine.end(), std::size_t{0});
          }
          if (mine.empty()) return out;
          std::vector<std::size_t> granted;
          granted.reserve(mine.size());
          for (const std::size_t t : mine) granted.push_back(indices[t]);
          auto results = execute_unit(spec, plan, granted, options.cache);
          for (std::size_t m = 0; m < mine.size(); ++m) out[mine[m]] = std::move(results[m]);
          if (options.hooks.stored) options.hooks.stored(granted);
          return out;
        },
        batch);
    for (std::size_t u = 0; u < units.size(); ++u) {
      for (std::size_t t = 0; t < units[u].count; ++t) {
        if (computed[u][t].has_value()) {
          payloads[misses[units[u].first + t]] = std::move(computed[u][t]);
          ++outcome.computed;
        } else {
          ++outcome.claimed_elsewhere;
        }
      }
    }
  }
  return outcome;
}

ScenarioRunner::ScenarioRunner(RunOptions options) : options_(std::move(options)) {}

json::JsonValue ScenarioRunner::execute_job(const ResolvedJob& job) {
  switch (job.measurement.type) {
    case MeasurementSpec::Type::kDynamic:
    case MeasurementSpec::Type::kYield:
      return job.stimulus.type == StimulusSpec::Type::kTwoTone ? run_two_tone(job)
                                                               : run_dynamic(job);
    case MeasurementSpec::Type::kStatic: return run_static(job);
    case MeasurementSpec::Type::kPower: return run_power(job);
  }
  throw adc::common::ConfigError("ScenarioRunner: unknown measurement type");
}

RunResult ScenarioRunner::run(const ScenarioSpec& spec) {
  RunResult result;
  adc::runtime::RunManifest manifest("scenario_" + spec.name);
  ResultCache cache(options_.cache_dir);
  if (options_.use_cache) cache.ensure_writable();
  manifest.set_text("scenario", spec.name);
  manifest.set_text("spec_hash", spec_hash(spec));
  manifest.set_text("fingerprint", to_hex(golden_code_fingerprint()));
  manifest.set_text("cache_dir", cache.root());
  manifest.set_text("fidelity", std::string(adc::common::to_string(spec.die.fidelity)));
  manifest.set_count("threads", adc::runtime::effective_thread_count(options_.threads));
  manifest.set_seed_range(spec.first_seed, spec.seed_count);

  // Expand the sweep grid and content-address every job — through the same
  // planner entry point the scenario service schedules from.
  ScenarioPlan plan;
  {
    auto phase = manifest.phase("expand");
    plan = plan_scenario(spec, options_.threads);
    phase.set_jobs(plan.jobs.size());
  }
  const std::vector<JobPoint>& jobs = plan.jobs;
  result.jobs_total = jobs.size();

  // Probe the cache: anything already computed (by a previous run, an
  // interrupted run, or a different scenario hitting the same physics) is
  // reused verbatim.
  std::vector<std::optional<json::JsonValue>> payloads(jobs.size());
  {
    auto phase = manifest.phase("cache_probe", jobs.size());
    if (options_.use_cache) {
      result.cache_hits = probe_cache(plan, cache, payloads, nullptr, options_.threads);
    }
  }
  const std::size_t miss_count = jobs.size() - result.cache_hits;

  // Compute the misses through the shared execute phase — the same path a
  // fleet worker takes, so sharded and single-process runs produce the same
  // cache bytes and the same report.
  result.pool_before = adc::runtime::global_pool().counters();
  {
    auto phase = manifest.phase(
        "execute", options_.max_jobs != 0 ? std::min(miss_count, options_.max_jobs)
                                          : miss_count);
    ExecuteOptions execute;
    execute.threads = options_.threads;
    execute.max_jobs = options_.max_jobs;
    execute.cache = options_.use_cache ? &cache : nullptr;
    const ExecuteOutcome outcome = execute_plan(spec, plan, payloads, execute);
    result.computed = outcome.computed;
    result.skipped = outcome.skipped;
  }
  result.pool_after = adc::runtime::global_pool().counters();
  result.cache_evictions = cache.evictions();

  // Build the deterministic report through the shared builder — the same
  // bytes a service client receives in its terminal summary event.
  {
    auto phase = manifest.phase("report", jobs.size());
    result.report = build_report(spec, plan, std::move(payloads));

    if (!options_.report_dir.empty()) {
      const ReportPaths paths = write_report_files(result.report, spec.name,
                                                   options_.report_dir, options_.threads);
      result.report_json_path = paths.json_path;
      result.report_csv_path = paths.csv_path;
    }
  }

  manifest.set_count("jobs_total", result.jobs_total);
  manifest.set_count("cache_hits", result.cache_hits);
  manifest.set_count("cache_misses", result.jobs_total - result.cache_hits);
  manifest.set_count("computed", result.computed);
  manifest.set_count("skipped", result.skipped);
  manifest.set_count("cache_evictions", result.cache_evictions);
  manifest.set_count("cache_stores", cache.stores());
  manifest.set_pool_telemetry(adc::runtime::global_pool().counters(),
                              adc::runtime::global_pool().latency_histogram());
  result.manifest_path = manifest.write_to_env_dir();
  return result;
}

}  // namespace adc::scenario
