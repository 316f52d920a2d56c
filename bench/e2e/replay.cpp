/// \file replay.cpp
/// The traced run of the runner workloads: ScenarioRunner::run replayed
/// through the public calls it is made of, with a span around each call.
///
/// The replay follows execute_plan's grouping rule (consecutive misses at
/// one grid point, at most kLanes per unit, batched from kMinBatchDies) and
/// run_dynamic_test's measurement line by line, so its report bytes must
/// equal the untraced run's; the parent process checks that they do. A change to
/// either rule in the library shows up here as a digest mismatch.
#include <algorithm>
#include <bit>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "batch/batch_api.hpp"
#include "batch/converter.hpp"
#include "bench_util.hpp"
#include "dsp/signal.hpp"
#include "dsp/spectrum.hpp"
#include "pipeline/adc.hpp"
#include "runtime/parallel.hpp"
#include "scenario/cache.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "workloads.hpp"

namespace adc_bench {

namespace json = adc::common::json;
namespace sc = adc::scenario;

namespace {

/// The runner's single-tone options for a resolved job (runner.cpp).
struct ToneSetup {
  adc::dsp::CoherentTone coherent;
  double amplitude = 0.0;
  adc::dsp::SpectrumOptions spectrum;
};

ToneSetup tone_setup(const sc::ResolvedJob& job, double fs, double full_scale_vpp) {
  const double fin_cap = job.stimulus.max_fin_fraction * job.config.conversion_rate / 2.0;
  ToneSetup t;
  t.coherent = adc::dsp::coherent_frequency(std::min(job.stimulus.frequency_hz, fin_cap), fs,
                                            job.stimulus.record_length);
  t.amplitude = job.stimulus.amplitude_fraction * full_scale_vpp / 2.0;
  t.spectrum.fundamental_bin = t.coherent.cycles;
  return t;
}

/// The runner's dynamic payload, key order included.
json::JsonValue dynamic_payload(const adc::dsp::CoherentTone& tone,
                                const adc::dsp::SpectrumMetrics& m) {
  auto payload = json::JsonValue::object();
  payload.set("tone_hz", tone.frequency_hz);
  payload.set("snr_db", m.snr_db);
  payload.set("sndr_db", m.sndr_db);
  payload.set("sfdr_db", m.sfdr_db);
  payload.set("thd_db", m.thd_db);
  payload.set("enob", m.enob);
  return payload;
}

adc::dsp::SpectrumMetrics measure(std::span<const int> codes, int bits, double full_scale,
                                  double fs, const adc::dsp::SpectrumOptions& spectrum) {
  std::vector<double> volts;
  {
    const Span span("dsp.volts");
    volts = adc::dsp::codes_to_volts(codes, bits, full_scale);
  }
  const Span span("dsp.analyze");
  return adc::dsp::analyze_tone(volts, fs, spectrum);
}

bool same_grid_point(const sc::JobPoint& a, const sc::JobPoint& b) {
  if (a.axis_values.size() != b.axis_values.size()) return false;
  for (std::size_t i = 0; i < a.axis_values.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a.axis_values[i]) !=
        std::bit_cast<std::uint64_t>(b.axis_values[i])) {
      return false;
    }
  }
  return true;
}

struct Unit {
  std::size_t first = 0;  ///< position in the misses vector
  std::size_t count = 1;
};

/// What one unit did, for the runtime and batch metrics.
struct UnitRecord {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  bool batched = false;
};

/// Time during [lo, hi] with fewer than `threads` units running.
double tail_seconds(const std::vector<UnitRecord>& units, std::int64_t lo, std::int64_t hi,
                    unsigned threads) {
  std::vector<std::pair<std::int64_t, int>> events;
  events.reserve(2 * units.size() + 2);
  for (const auto& u : units) {
    events.emplace_back(u.start_ns, +1);
    events.emplace_back(u.end_ns, -1);
  }
  std::sort(events.begin(), events.end());
  std::int64_t tail = 0;
  std::int64_t at = lo;
  int running = 0;
  for (const auto& [t, delta] : events) {
    const std::int64_t clipped = std::clamp(t, lo, hi);
    if (running < static_cast<int>(threads)) tail += clipped - at;
    at = clipped;
    running += delta;
  }
  if (running < static_cast<int>(threads)) tail += hi - at;
  return 1e-9 * static_cast<double>(tail);
}

}  // namespace

ReplayResult replay_run(const json::JsonValue& spec_doc, const std::string& cache_root,
                        const std::string& report_dir, unsigned threads, std::uint64_t request) {
  const sc::ScenarioSpec spec = sc::parse_spec(spec_doc);
  if (spec.stimulus.type != sc::StimulusSpec::Type::kTone ||
      spec.measurement.type == sc::MeasurementSpec::Type::kStatic ||
      spec.measurement.type == sc::MeasurementSpec::Type::kPower) {
    throw std::runtime_error("replay_run: only single-tone dynamic/yield specs are replayed");
  }
  // For those shapes the runner batches exactly the fast profile.
  const bool batchable = spec.die.fidelity == adc::common::FidelityProfile::kFast;

  ReplayResult result;
  const auto start = Clock::now();
  sc::ResultCache cache(cache_root);
  {
    const Span span("cache.ensure", 0, request);
    cache.ensure_writable();
  }
  sc::ScenarioPlan plan;
  {
    const Span span("scenario.plan", 0, request);
    plan = sc::plan_scenario(spec);
  }
  const std::size_t jobs = plan.jobs.size();
  std::vector<std::optional<json::JsonValue>> payloads(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    const Span span("cache.load", 0, request);
    payloads[i] = cache.load(plan.hashes[i]);
  }

  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < jobs; ++i) {
    if (!payloads[i].has_value()) misses.push_back(i);
  }
  std::vector<Unit> units;
  for (std::size_t k = 0; k < misses.size();) {
    std::size_t j = k + 1;
    while (batchable && j < misses.size() && j - k < adc::batch::kLanes &&
           same_grid_point(plan.jobs[misses[j]], plan.jobs[misses[k]])) {
      ++j;
    }
    units.push_back({k, j - k});
    k = j;
  }

  std::vector<UnitRecord> records(units.size());
  std::int64_t exec_start = 0;
  std::int64_t exec_end = 0;
  if (!units.empty()) {
    const Span execute("runtime.execute", 0, request);
    exec_start = now_ns();
    adc::runtime::BatchOptions batch;
    batch.threads = threads;
    auto computed = adc::runtime::parallel_map<std::vector<std::optional<json::JsonValue>>>(
        units.size(),
        [&](std::size_t u) {
          const Span unit_span("runtime.unit", execute.id(), request);
          records[u].start_ns = now_ns();
          const Unit& unit = units[u];
          std::vector<std::optional<json::JsonValue>> out(unit.count);
          const sc::ResolvedJob first = sc::resolve_job(spec, plan.jobs[misses[unit.first]]);
          const std::size_t n = first.stimulus.record_length;
          if (unit.count >= adc::batch::kMinBatchDies &&
              adc::batch::BatchConverter::supports_config(first.config)) {
            records[u].batched = true;
            std::vector<std::uint64_t> seeds;
            seeds.reserve(unit.count);
            for (std::size_t t = 0; t < unit.count; ++t) {
              seeds.push_back(plan.jobs[misses[unit.first + t]].seed);
            }
            std::optional<adc::batch::BatchConverter> conv;
            {
              const Span span("batch.fabricate");
              conv.emplace(first.config, seeds);
            }
            const double fs = conv->conversion_rate();
            const ToneSetup tone = tone_setup(first, fs, conv->full_scale_vpp());
            const adc::dsp::SineSignal sine(tone.amplitude, tone.coherent.frequency_hz);
            std::vector<std::vector<int>> codes;
            {
              const Span span("batch.convert");
              codes = conv->convert(sine, n);
            }
            for (std::size_t d = 0; d < unit.count; ++d) {
              out[d] = dynamic_payload(tone.coherent,
                                       measure(codes[d], conv->resolution_bits(),
                                               conv->full_scale_vpp(), fs, tone.spectrum));
            }
          } else {
            for (std::size_t t = 0; t < unit.count; ++t) {
              const sc::ResolvedJob job =
                  t == 0 ? first : sc::resolve_job(spec, plan.jobs[misses[unit.first + t]]);
              std::optional<adc::pipeline::PipelineAdc> adc;
              {
                const Span span("pipeline.fabricate");
                adc.emplace(job.config);
              }
              const double fs = adc->conversion_rate();
              const ToneSetup tone = tone_setup(job, fs, adc->full_scale_vpp());
              const adc::dsp::SineSignal sine(tone.amplitude, tone.coherent.frequency_hz);
              std::vector<int> codes;
              {
                const Span span("pipeline.convert");
                codes = adc->convert(sine, job.stimulus.record_length);
              }
              out[t] = dynamic_payload(tone.coherent,
                                       measure(codes, adc->resolution_bits(),
                                               adc->full_scale_vpp(), fs, tone.spectrum));
            }
          }
          for (std::size_t t = 0; t < unit.count; ++t) {
            const Span span("cache.store");
            cache.store(plan.hashes[misses[unit.first + t]], *out[t]);
          }
          records[u].end_ns = now_ns();
          return out;
        },
        batch);
    exec_end = now_ns();
    for (std::size_t u = 0; u < units.size(); ++u) {
      for (std::size_t t = 0; t < units[u].count; ++t) {
        payloads[misses[units[u].first + t]] = std::move(computed[u][t]);
      }
    }
  }

  json::JsonValue report;
  {
    const Span span("report.build", 0, request);
    report = sc::build_report(spec, plan, payloads);
  }
  sc::ReportPaths paths;
  {
    const Span span("report.write", 0, request);
    paths = sc::write_report_files(report, spec.name, report_dir);
  }
  result.wall_s = seconds_since(start);
  result.spans = drain_spans();
  result.report_bytes = read_file(paths.json_path);

  // Probes after the timed replay: the document dump on its own, and the
  // parse of every envelope the cache holds for this plan.
  LayerValues& l = result.layers;
  {
    const auto t0 = Clock::now();
    const std::string dumped = json::dump(report);
    l["report.dump_s"] = seconds_since(t0);
    if (dumped != result.report_bytes) throw std::runtime_error("report file != json::dump");
  }
  double parse_s = 0.0;
  for (const auto& hash : plan.hashes) {
    const std::string path = cache_root + "/" + hash.substr(0, 2) + "/" + hash + ".json";
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) continue;
    const std::string bytes = read_file(path);
    const auto t0 = Clock::now();
    const json::JsonValue parsed = json::parse(bytes);
    parse_s += seconds_since(t0);
    if (!parsed.is_object()) throw std::runtime_error("cache envelope is not an object");
  }
  l["json.parse_s"] = parse_s;

  const auto totals = aggregate(result.spans);
  const auto self = [&](const char* name) {
    const auto found = totals.find(name);
    return found == totals.end() ? 0.0 : found->second.self_s;
  };
  const auto durations = [&](const char* name) {
    const auto found = totals.find(name);
    return found == totals.end() ? std::vector<double>{} : found->second.durations_s;
  };
  const auto us_percentile = [](const std::vector<double>& d, double p) {
    return percentile_resolved(d.size(), p) ? 1e6 * percentile(d, p) : 0.0;
  };

  l["scenario.plan_s"] = self("scenario.plan");
  const auto loads = durations("cache.load");
  l["cache.load_s"] = self("cache.load");
  l["cache.load_p50_us"] = us_percentile(loads, 0.5);
  l["cache.load_p90_us"] = us_percentile(loads, 0.9);
  l["cache.loads"] = static_cast<double>(loads.size());
  l["cache.hits"] = static_cast<double>(cache.hits());
  l["cache.evictions"] = static_cast<double>(cache.evictions());
  const auto stores = durations("cache.store");
  l["cache.store_s"] = self("cache.store");
  l["cache.store_p50_us"] = us_percentile(stores, 0.5);
  l["cache.store_p90_us"] = us_percentile(stores, 0.9);
  l["cache.stores"] = static_cast<double>(cache.stores());
  l["report.build_s"] = self("report.build");
  l["report.write_s"] = self("report.write");

  double busy = 0.0;
  double queue_wait = 0.0;
  std::size_t blocks = 0;
  std::size_t block_dies = 0;
  for (std::size_t u = 0; u < units.size(); ++u) {
    busy += 1e-9 * static_cast<double>(records[u].end_ns - records[u].start_ns);
    queue_wait += 1e-9 * static_cast<double>(records[u].start_ns - exec_start);
    if (records[u].batched) {
      ++blocks;
      block_dies += units[u].count;
    }
  }
  const double exec_s = 1e-9 * static_cast<double>(exec_end - exec_start);
  l["runtime.units"] = static_cast<double>(units.size());
  l["runtime.queue_wait_s"] = queue_wait;
  l["runtime.busy_s"] = busy;
  l["runtime.util"] = exec_s > 0.0 ? busy / (exec_s * threads) : 0.0;
  l["runtime.tail_s"] = units.empty() ? 0.0 : tail_seconds(records, exec_start, exec_end, threads);

  const std::size_t n = spec.stimulus.record_length;
  const double lanes = static_cast<double>(adc::batch::kLanes);
  l["batch.fabricate_s"] = self("batch.fabricate");
  l["batch.convert_s"] = self("batch.convert");
  l["batch.blocks"] = static_cast<double>(blocks);
  l["batch.pad_lanes"] = static_cast<double>(blocks * adc::batch::kLanes - block_dies);
  l["batch.lane_util"] =
      blocks > 0 ? static_cast<double>(block_dies) / (static_cast<double>(blocks) * lanes) : 0.0;
  l["batch.ns_per_lane_sample"] =
      blocks > 0 ? 1e9 * l["batch.convert_s"] /
                       (static_cast<double>(blocks) * lanes * static_cast<double>(n))
                 : 0.0;
  const auto pipeline_dies = durations("pipeline.convert").size();
  l["pipeline.fabricate_s"] = self("pipeline.fabricate");
  l["pipeline.convert_s"] = self("pipeline.convert");
  l["pipeline.dies"] = static_cast<double>(pipeline_dies);
  l["pipeline.ns_per_sample"] =
      pipeline_dies > 0 ? 1e9 * l["pipeline.convert_s"] /
                              (static_cast<double>(pipeline_dies) * static_cast<double>(n))
                        : 0.0;
  l["dsp.volts_s"] = self("dsp.volts");
  l["dsp.analyze_s"] = self("dsp.analyze");
  l["dsp.analyses"] = static_cast<double>(durations("dsp.analyze").size());

  double covered = 0.0;
  for (const auto& s : result.spans) {
    if (s.parent == 0) covered += 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
  }
  l["trace.coverage"] = covered / result.wall_s;
  return result;
}

}  // namespace adc_bench
