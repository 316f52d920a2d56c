#include "workloads.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <utility>

#include "batch/batch_api.hpp"
#include "bench_util.hpp"
#include "common/isa_dispatch.hpp"
#include "fleet/merge.hpp"
#include "fleet/worker.hpp"
#include "pipeline/adc.hpp"
#include "runtime/parallel.hpp"
#include "scenario/cache.hpp"
#include "scenario/hash.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace adc_bench {

namespace fs = std::filesystem;
namespace json = adc::common::json;
namespace sc = adc::scenario;

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kYieldCold: return "yield-cold";
    case Workload::kYieldWarm: return "yield-warm";
    case Workload::kSweepScalar: return "sweep-scalar";
    case Workload::kFleetW2: return "fleet-w2";
    case Workload::kServedMix: return "served-mix";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : kAllWorkloads) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const std::vector<LayerMetric>& layer_metric_catalog() {
  static const std::vector<LayerMetric> catalog{
      {"scenario.plan_s", "s"},          {"cache.load_s", "s"},
      {"cache.load_p50_us", "us"},       {"cache.load_p90_us", "us"},
      {"cache.loads", "count"},          {"cache.hits", "count"},
      {"cache.evictions", "count"},      {"cache.store_s", "s"},
      {"cache.store_p50_us", "us"},      {"cache.store_p90_us", "us"},
      {"cache.stores", "count"},         {"report.build_s", "s"},
      {"report.dump_s", "s"},            {"report.write_s", "s"},
      {"json.parse_s", "s"},             {"common.fill_ns_per_deviate", "ns"},
      {"runtime.units", "count"},        {"runtime.queue_wait_s", "s"},
      {"runtime.busy_s", "s"},           {"runtime.util", "fraction"},
      {"runtime.tail_s", "s"},           {"batch.fabricate_s", "s"},
      {"batch.convert_s", "s"},          {"batch.fill_s", "s"},
      {"batch.chain_s", "s"},            {"batch.chain_share", "fraction"},
      {"batch.ns_per_lane_sample", "ns"}, {"batch.blocks", "count"},
      {"batch.pad_lanes", "count"},      {"batch.lane_util", "fraction"},
      {"pipeline.fabricate_s", "s"},     {"pipeline.convert_s", "s"},
      {"pipeline.ns_per_sample", "ns"},  {"pipeline.dies", "count"},
      {"dsp.volts_s", "s"},              {"dsp.analyze_s", "s"},
      {"dsp.analyses", "count"},         {"fleet.worker_s_max", "s"},
      {"fleet.worker_skew_s", "s"},      {"fleet.merge_s", "s"},
      {"fleet.scavenged", "count"},      {"fleet.elsewhere", "count"},
      {"fleet.useful_frac", "fraction"}, {"service.accept_ms_p50", "ms"},
      {"service.cell_gap_ms_p50", "ms"}, {"service.cell_gap_ms_p90", "ms"},
      {"service.tail_ms_p50", "ms"},     {"service.cells_hit", "count"},
      {"service.cells_deduped", "count"}, {"service.cells_computed", "count"},
      {"trace.coverage", "fraction"},    {"trace.overhead_frac", "fraction"},
  };
  return catalog;
}

namespace {

/// Samples of the yield spec's record (conversions per die).
constexpr std::size_t kYieldRecord = 2048;

json::JsonValue tone_stimulus(std::uint64_t record_length) {
  auto stimulus = json::JsonValue::object();
  stimulus.set("type", "tone");
  stimulus.set("frequency_hz", 10e6);
  stimulus.set("amplitude_fraction", 0.985);
  stimulus.set("record_length", record_length);
  return stimulus;
}

json::JsonValue seed_range(std::uint64_t first, std::uint64_t count) {
  auto seeds = json::JsonValue::object();
  seeds.set("first", first);
  seeds.set("count", count);
  return seeds;
}

json::JsonValue rate_axis(const std::vector<double>& rates) {
  auto values = json::JsonValue::array();
  for (const double r : rates) values.push_back(r);
  auto axis = json::JsonValue::object();
  axis.set("key", "die.conversion_rate_hz");
  axis.set("values", std::move(values));
  auto sweep = json::JsonValue::array();
  sweep.push_back(std::move(axis));
  return sweep;
}

json::JsonValue measurement_of(const char* type) {
  auto m = json::JsonValue::object();
  m.set("type", type);
  return m;
}

json::JsonValue fast_die() {
  auto die = json::JsonValue::object();
  die.set("fidelity", "fast");
  return die;
}

/// The yield spec: scenarios/yield2k.json with the seed range as a
/// parameter. At seed 42 and 2000 dies every member, the description
/// included, is the file's.
json::JsonValue yield_spec_doc(std::uint64_t first_seed, std::uint64_t dies) {
  auto doc = json::JsonValue::object();
  doc.set("name", "yield2k");
  doc.set("description",
          "2000-die Monte-Carlo yield at fast fidelity: 2k-record dynamic test on seeds " +
              std::to_string(first_seed) + ".." + std::to_string(first_seed + dies - 1) +
              ", pass when SNDR >= 63 dB. Sized for the fleet engine: shard it across workers "
              "with adc_fleet, or run it single-process (resumable either way).");
  doc.set("stimulus", tone_stimulus(kYieldRecord));
  auto measurement = measurement_of("yield");
  measurement.set("metric", "sndr_db");
  measurement.set("limit", 63.0);
  doc.set("measurement", std::move(measurement));
  doc.set("die", fast_die());
  doc.set("seeds", seed_range(first_seed, dies));
  return doc;
}

json::JsonValue sweep_spec_doc(std::uint64_t first_seed, bool quick) {
  // 3 seeds per rate: every execute unit holds fewer dies than
  // kMinBatchDies, so each job takes the scalar fast chain.
  std::vector<double> rates;
  const std::size_t count = quick ? 8 : 64;
  for (std::size_t k = 0; k < count; ++k) rates.push_back(20e6 + 2.5e6 * static_cast<double>(k));
  auto doc = json::JsonValue::object();
  doc.set("name", "sweep_scalar");
  doc.set("description", "fast-profile rate sweep, 3 dies per rate (scalar units)");
  doc.set("stimulus", tone_stimulus(quick ? 1024 : 8192));
  doc.set("measurement", measurement_of("dynamic"));
  doc.set("die", fast_die());
  doc.set("seeds", seed_range(first_seed, 3));
  doc.set("sweep", rate_axis(rates));
  return doc;
}

/// ns per standard-normal deviate of the batch engine's dispatched noise
/// fill, over the deviate count of one kLanes-wide capture of `n` samples.
double fill_ns_per_deviate(std::size_t slots, std::size_t n) {
  // One capture's fill as the kernel issues it: per chunk of kChunkSamples,
  // one call per lane over chunk x slots positional deviates.
  const auto& ops = adc::batch::kernel_ops(adc::common::active_batch_isa());
  const std::size_t chunk = std::min(n, adc::batch::kChunkSamples);
  std::vector<double> plane(chunk * slots);
  std::size_t deviates = 0;
  std::uint64_t epoch = 0;
  const auto start = Clock::now();
  do {
    ++epoch;
    for (std::size_t first = 0; first < n; first += chunk) {
      for (std::size_t lane = 0; lane < adc::batch::kLanes; ++lane) {
        ops.normal_fill(adc::pipeline::kNominalSeed + lane, epoch, first * slots, plane.data(),
                        plane.size());
        deviates += plane.size();
      }
    }
  } while (seconds_since(start) < 0.05);
  return 1e9 * seconds_since(start) / static_cast<double>(deviates);
}

/// A timed loop: call `rep(i)`, which returns the seconds it measured, until
/// `seconds` have been measured and at least `min_reps` calls ran.
template <typename Rep>
void timed_reps(double seconds, std::size_t min_reps, Rep&& rep) {
  double spent = 0.0;
  for (std::size_t i = 0; i < min_reps || spent < seconds; ++i) spent += rep(i);
}

/// The set-up a process does before its first job is submittable: the pool
/// spun up, the golden-code fingerprint every content address folds in
/// (computed once per process), and a writable cache root.
void ready_to_submit(const std::string& cache_root) {
  (void)adc::runtime::global_pool();
  (void)sc::golden_code_fingerprint();
  sc::ResultCache(cache_root).ensure_writable();
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
}

/// The summary docs/SCENARIOS.md pins for yield2k at seed 42.
constexpr const char* kYield2kPin =
    R"({"metric":"sndr_db","limit":63.0,"mean":64.69819882269162,"min":61.08119932156776,)"
    R"("max":67.36321185775226,"passing":1867,"yield_fraction":0.9335})";

bool is_pinned_yield(const ChildOptions& o) { return o.seed == 42 && !o.quick; }

std::uint64_t yield_dies(const ChildOptions& o) { return o.quick ? 64 : 2000; }

void check_pin(Tally& tally, const json::JsonValue& report) {
  const auto* summary = report.find("summary");
  tally.check(summary != nullptr && json::dump_compact(*summary) == kYield2kPin,
              "yield2k summary differs from the docs/SCENARIOS.md pin");
}

/// yield-cold, yield-warm and sweep-scalar: ScenarioRunner::run, untraced;
/// the replay of it, traced.
json::JsonValue run_runner_workload(Workload w, const ChildOptions& o) {
  const bool sweep = w == Workload::kSweepScalar;
  const json::JsonValue doc =
      sweep ? sweep_spec_doc(o.seed, o.quick) : yield_spec_doc(o.seed, yield_dies(o));
  const sc::ScenarioSpec spec = sc::parse_spec(doc);
  const std::string cache_root = "cache";
  ready_to_submit(cache_root);
  signal_ready(o.ready_fd);
  if (o.setup_only) return json::JsonValue::object();

  Tally tally;
  const bool warm = w == Workload::kYieldWarm;
  const std::size_t jobs = sc::expand_jobs(spec).size();
  sc::RunOptions run_options;
  run_options.cache_dir = cache_root;
  run_options.report_dir = "reports";
  run_options.threads = o.threads;

  std::string expected_digest;
  if (warm) {
    // Fill the cache (untimed); its report is the one every warm run must
    // reproduce byte for byte.
    remove_tree(cache_root);
    const auto fill = sc::ScenarioRunner(run_options).run(spec);
    expected_digest = digest(read_file(fill.report_json_path));
    if (is_pinned_yield(o)) check_pin(tally, fill.report);
  }

  // One untraced run through the front-end: its wall, with every check.
  const auto run_once = [&](std::size_t rep) {
    if (!warm) remove_tree(cache_root);
    const auto start = Clock::now();
    const sc::RunResult r = sc::ScenarioRunner(run_options).run(spec);
    const double wall = seconds_since(start);
    const std::string report_digest = digest(read_file(r.report_json_path));
    if (expected_digest.empty()) expected_digest = report_digest;
    const std::string tag = "run " + std::to_string(rep) + ": ";
    tally.check(report_digest == expected_digest, tag + "report digest differs across runs");
    if (warm) {
      tally.check(r.cache_hits == jobs, tag + "warm run missed the cache");
      tally.check(r.pool_after.submitted == r.pool_before.submitted,
                  tag + "warm run submitted pool jobs");
    } else {
      tally.check(r.computed == jobs, tag + "cold run did not compute every job");
      if (rep == 0 && is_pinned_yield(o) && !sweep) check_pin(tally, r.report);
    }
    return wall;
  };

  json::JsonValue out = json::JsonValue::object();
  std::vector<double> request_ms;
  if (!o.traced) {
    timed_reps(window_seconds(o), o.quick ? 1 : 3, [&](std::size_t rep) {
      request_ms.push_back(1e3 * run_once(rep));
      return 1e-3 * request_ms.back();
    });
  } else {
    // Each traced replay is followed by the same run untraced, so the
    // tracing overhead is measured in one stretch of the machine's drift.
    std::vector<double> untraced_ms;
    std::vector<LayerValues> reps;
    std::vector<SpanRecord> first_spans;
    timed_reps(window_seconds(o), 1, [&](std::size_t rep) {
      if (!warm) remove_tree(cache_root);
      set_tracing(true);
      ReplayResult r = replay_run(doc, cache_root, "reports", o.threads, rep + 1);
      set_tracing(false);
      if (expected_digest.empty()) expected_digest = digest(r.report_bytes);
      tally.check(digest(r.report_bytes) == expected_digest,
                  "traced replay " + std::to_string(rep) + ": report digest differs");
      if (warm) tally.check(r.layers["runtime.units"] < 0.5, "warm replay computed jobs");
      if (rep == 0) first_spans = std::move(r.spans);
      reps.push_back(std::move(r.layers));
      request_ms.push_back(1e3 * r.wall_s);
      untraced_ms.push_back(1e3 * run_once(rep));
      return 1e-3 * (request_ms.back() + untraced_ms.back());
    });
    add_fill_metrics(reps, doc);
    json::JsonValue layers = median_layers(reps);
    layers.set("trace.overhead_frac", paired_overhead(request_ms, untraced_ms));
    out.set("layers", std::move(layers));
    write_file("spans.json", spans_json(first_spans));
  }
  out.set("report_digest", expected_digest);
  out.set("request_ms", to_array(request_ms));
  tally.write(out);
  return out;
}

// --- fleet-w2 ------------------------------------------------------------------

constexpr unsigned kFleetShards = 2;

/// Worker width: 2 workers share the parent's thread budget.
unsigned fleet_worker_threads(const ChildOptions& o) {
  return std::max(1u, o.threads / kFleetShards);
}

std::vector<std::string> worker_args(const ChildOptions& o, unsigned shard,
                                     const std::string& cache, const std::string& result) {
  std::vector<std::string> args{"--fleet-worker", std::to_string(shard), "--cache", cache,
                                "--seed",         std::to_string(o.seed)};
  if (o.quick) args.emplace_back("--quick");
  if (o.setup_only) args.emplace_back("--setup-only");
  if (!result.empty()) {
    args.emplace_back("--result");
    args.push_back(result);
  }
  return args;
}

std::vector<std::pair<std::string, std::string>> worker_env(const ChildOptions& o) {
  return {{"ADC_RUNTIME_THREADS", std::to_string(fleet_worker_threads(o))}};
}

/// Start both workers and wait until each is ready to take jobs.
std::vector<Child> start_workers(const ChildOptions& o, const std::string& cache,
                                 const std::string& result_prefix) {
  std::vector<Child> workers;
  std::vector<std::unique_ptr<ReadyPipe>> pipes;
  for (unsigned k = 0; k < kFleetShards; ++k) {
    pipes.push_back(std::make_unique<ReadyPipe>());
    auto args = worker_args(
        o, k, cache, result_prefix.empty() ? "" : result_prefix + std::to_string(k) + ".json");
    args.emplace_back("--ready-fd");
    args.push_back(std::to_string(kReadyFd));
    workers.push_back(Child::spawn(args, worker_env(o), pipes.back()->write_end()));
    pipes.back()->close_write_end();
  }
  for (auto& pipe : pipes) {
    if (!pipe->wait_ready()) throw std::runtime_error("fleet worker exited before it was ready");
  }
  return workers;
}

json::JsonValue run_fleet_workload(const ChildOptions& o) {
  const json::JsonValue doc = yield_spec_doc(o.seed, yield_dies(o));
  const sc::ScenarioSpec spec = sc::parse_spec(doc);
  const std::string cache_root = "fleet-cache";
  if (o.setup_only) {
    for (auto& worker : start_workers(o, cache_root, "")) worker.wait();
    signal_ready(o.ready_fd);
    return json::JsonValue::object();
  }
  signal_ready(o.ready_fd);

  Tally tally;
  const std::size_t jobs = sc::expand_jobs(spec).size();
  std::vector<std::string> digests;
  std::vector<LayerValues> reps;
  std::vector<SpanRecord> spans;
  std::vector<double> request_ms;
  std::vector<double> untraced_ms;
  // A traced run alternates traced and untraced fleet runs, for the
  // tracing overhead; the layer metrics come from every run.
  timed_reps(window_seconds(o), o.traced ? 2 : o.quick ? 1 : 3, [&](std::size_t rep) {
    set_tracing(o.traced && rep % 2 == 0);
    remove_tree(cache_root);
    const std::string tag = "fleet run " + std::to_string(rep) + ": ";
    const auto start = Clock::now();
    std::vector<Child> workers = start_workers(o, cache_root, "worker");
    bool workers_ok = true;
    for (auto& worker : workers) workers_ok = worker.wait().status == 0 && workers_ok;
    tally.check(workers_ok, tag + "a worker failed");
    adc::fleet::MergeOptions merge;
    merge.cache_dir = cache_root;
    merge.report_dir = "fleet-reports";
    merge.shards = kFleetShards;
    const auto merge_start = Clock::now();
    adc::fleet::MergeResult merged;
    {
      const Span span("fleet.merge", 0, rep + 1);
      merged = adc::fleet::merge_fleet(spec, merge);
    }
    const double merge_s = seconds_since(merge_start);
    const double wall = seconds_since(start);
    digests.push_back(digest(read_file(merged.report_json_path)));

    LayerValues l;
    std::size_t computed = 0;
    double worker_max = 0.0;
    double worker_min = 0.0;
    for (unsigned k = 0; k < kFleetShards; ++k) {
      const auto result = json::parse(read_file("worker" + std::to_string(k) + ".json"));
      const double worker_s = result.find("wall_s")->as_double();
      worker_max = k == 0 ? worker_s : std::max(worker_max, worker_s);
      worker_min = k == 0 ? worker_s : std::min(worker_min, worker_s);
      if (tracing()) {
        SpanRecord s;
        s.name = "fleet.run_worker";
        s.start_ns = result.find("start_ns")->as_int64();
        s.end_ns = result.find("end_ns")->as_int64();
        s.thread = 1000 + k;
        s.id = 0xF0000000u + static_cast<std::uint32_t>(2 * rep + k);
        s.request = rep + 1;
        spans.push_back(s);
      }
    }
    for (const auto& m : merged.manifests) {
      computed += m.computed;
      l["fleet.scavenged"] += static_cast<double>(m.scavenged);
      l["fleet.elsewhere"] += static_cast<double>(m.elsewhere);
    }
    tally.check(computed >= jobs, tag + "workers computed fewer jobs than the grid holds");
    l["fleet.worker_s_max"] = worker_max;
    l["fleet.worker_skew_s"] = worker_max - worker_min;
    l["fleet.merge_s"] = merge_s;
    l["fleet.useful_frac"] =
        computed > 0 ? static_cast<double>(jobs) / static_cast<double>(computed) : 0.0;
    l["trace.coverage"] = (worker_max + merge_s) / wall;
    reps.push_back(std::move(l));
    (tracing() || !o.traced ? request_ms : untraced_ms).push_back(1e3 * wall);
    return wall;
  });
  set_tracing(false);
  for (auto& s : drain_spans()) spans.push_back(s);

  // Oracle: the merged report is byte-identical to a single-process run of
  // the same spec, on every rep.
  sc::RunOptions reference;
  reference.cache_dir = "ref-cache";
  reference.report_dir = "ref-reports";
  reference.threads = o.threads;
  const auto ref = sc::ScenarioRunner(reference).run(spec);
  const std::string ref_digest = digest(read_file(ref.report_json_path));
  for (std::size_t i = 0; i < digests.size(); ++i) {
    tally.check(digests[i] == ref_digest, "fleet run " + std::to_string(i) +
                                              ": merged report differs from ScenarioRunner");
  }
  if (is_pinned_yield(o)) check_pin(tally, ref.report);

  json::JsonValue out = json::JsonValue::object();
  out.set("request_ms", to_array(request_ms));
  out.set("report_digest", ref_digest);
  if (o.traced) {
    add_fill_metrics(reps, doc);
    json::JsonValue layers = median_layers(reps);
    layers.set("trace.overhead_frac", paired_overhead(request_ms, untraced_ms));
    out.set("layers", std::move(layers));
    write_file("spans.json", spans_json(spans));
  }
  tally.write(out);
  return out;
}

}  // namespace

json::JsonValue served_yield_doc(std::uint64_t first_seed, std::uint64_t dies) {
  auto doc = yield_spec_doc(first_seed, dies);
  doc.set("name", "served_yield");
  doc.erase("description");
  return doc;
}

json::JsonValue smoke_doc(const std::string& name, std::uint64_t first_seed) {
  // The shape of scenarios/smoke.json (exact profile, 3 rates x 2 seeds).
  auto doc = json::JsonValue::object();
  doc.set("name", name);
  doc.set("stimulus", tone_stimulus(1024));
  doc.set("measurement", measurement_of("dynamic"));
  doc.set("seeds", seed_range(first_seed, 2));
  doc.set("sweep", rate_axis({60e6, 110e6, 130e6}));
  return doc;
}

json::JsonValue median_layers(const std::vector<LayerValues>& reps) {
  auto out = json::JsonValue::object();
  for (const auto& metric : layer_metric_catalog()) {
    std::vector<double> values;
    for (const auto& rep : reps) {
      if (const auto found = rep.find(metric.name); found != rep.end()) {
        values.push_back(found->second);
      }
    }
    out.set(metric.name, summarize(values).median);
  }
  return out;
}

void add_fill_metrics(std::vector<LayerValues>& reps, const json::JsonValue& spec_doc) {
  const sc::ScenarioSpec spec = sc::parse_spec(spec_doc);
  const adc::pipeline::PipelineAdc probe(sc::resolve_job(spec, sc::expand_jobs(spec)[0]).config);
  const std::size_t n = spec.stimulus.record_length;
  const std::size_t slots = probe.noise_slots_per_sample();
  const double ns = fill_ns_per_deviate(slots, n);
  for (auto& l : reps) {
    l["common.fill_ns_per_deviate"] = ns;
    l["batch.fill_s"] =
        1e-9 * ns * static_cast<double>(slots * n * adc::batch::kLanes) * l["batch.blocks"];
    l["batch.chain_s"] = l["batch.convert_s"] - l["batch.fill_s"];
    l["batch.chain_share"] =
        l["batch.convert_s"] > 0.0 ? l["batch.chain_s"] / l["batch.convert_s"] : 0.0;
  }
}

double paired_overhead(const std::vector<double>& traced_ms,
                       const std::vector<double>& untraced_ms) {
  std::vector<double> ratios;
  for (std::size_t i = 0; i < std::min(traced_ms.size(), untraced_ms.size()); ++i) {
    ratios.push_back(traced_ms[i] / untraced_ms[i]);
  }
  return summarize(ratios).median - 1.0;
}

json::JsonValue to_array(const std::vector<double>& values) {
  auto a = json::JsonValue::array();
  for (const double v : values) a.push_back(v);
  return a;
}

int run_fleet_worker(const ChildOptions& o, unsigned shard, const std::string& cache_dir,
                     const std::string& result_path) {
  const sc::ScenarioSpec spec = sc::parse_spec(yield_spec_doc(o.seed, yield_dies(o)));
  ready_to_submit(cache_dir);
  signal_ready(o.ready_fd);
  if (o.setup_only) return 0;

  adc::fleet::WorkerOptions options;
  options.cache_dir = cache_dir;
  options.shards = kFleetShards;
  options.shard = shard;
  options.threads = fleet_worker_threads(o);
  const auto start = Clock::now();
  const auto result = adc::fleet::run_worker(spec, options);
  const auto end = Clock::now();
  auto doc = json::JsonValue::object();
  doc.set("wall_s", seconds_between(start, end));
  doc.set("start_ns", to_ns(start));
  doc.set("end_ns", to_ns(end));
  if (!result_path.empty()) write_file(result_path, json::dump(doc));
  return result.manifest.complete ? 0 : 1;
}

json::JsonValue run_workload(Workload w, const ChildOptions& options) {
  switch (w) {
    case Workload::kYieldCold:
    case Workload::kYieldWarm:
    case Workload::kSweepScalar: return run_runner_workload(w, options);
    case Workload::kFleetW2: return run_fleet_workload(options);
    case Workload::kServedMix: return run_served_mix(options);
  }
  throw std::runtime_error("unknown workload");
}

}  // namespace adc_bench
