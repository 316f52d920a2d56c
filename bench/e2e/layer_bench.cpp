/// \file layer_bench.cpp
/// google-benchmark microbenchmarks of the layers adc_bench's traced run
/// splits yield-cold and yield-warm into, so the traced shares can be
/// cross-checked at low noise: the yield2k plan, 2000 real cache stores and
/// loads (a load includes the parse and envelope check), the report build
/// and dump over 2000 rows, and one 8-die BatchConverter fabrication.
///
///   build-e2e/layer_bench [--benchmark_repetitions=5]
///
/// Scratch cache files go to a directory under the working directory that
/// is removed at exit.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "batch/batch_api.hpp"
#include "batch/converter.hpp"
#include "common/json.hpp"
#include "pipeline/design.hpp"
#include "scenario/cache.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace {

namespace json = adc::common::json;
namespace sc = adc::scenario;

constexpr const char* kYield2k = R"({
  "name": "yield2k",
  "stimulus": {"type": "tone", "frequency_hz": 10e6, "amplitude_fraction": 0.985,
               "record_length": 2048},
  "measurement": {"type": "yield", "metric": "sndr_db", "limit": 63.0},
  "die": {"fidelity": "fast"},
  "seeds": {"first": 42, "count": 2000}
})";

/// The yield2k plan and its 2000 computed payloads, built once.
struct Yield2k {
  sc::ScenarioSpec spec = sc::parse_spec_text(kYield2k);
  sc::ScenarioPlan plan = sc::plan_scenario(spec);
  std::vector<std::optional<json::JsonValue>> payloads;
  std::string root;

  Yield2k() {
    payloads.resize(plan.jobs.size());
    (void)sc::execute_plan(spec, plan, payloads, {});
    std::string pattern = "./layer_bench.XXXXXX";
    if (::mkdtemp(pattern.data()) == nullptr) throw std::runtime_error("mkdtemp failed");
    root = pattern;
  }
  ~Yield2k() {
    std::error_code ec;
    std::filesystem::remove_all(root, ec);
  }
  Yield2k(const Yield2k&) = delete;
  Yield2k& operator=(const Yield2k&) = delete;
};

Yield2k& yield2k() {
  static Yield2k fixture;
  return fixture;
}

void BM_PlanScenario(benchmark::State& state) {
  const sc::ScenarioSpec& spec = yield2k().spec;
  for (auto _ : state) benchmark::DoNotOptimize(sc::plan_scenario(spec));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2000);
}
BENCHMARK(BM_PlanScenario)->Unit(benchmark::kMillisecond);

void BM_CacheStore(benchmark::State& state) {
  Yield2k& y = yield2k();
  sc::ResultCache cache(y.root + "/store");
  cache.ensure_writable();
  for (auto _ : state) {
    for (std::size_t i = 0; i < y.plan.hashes.size(); ++i) {
      cache.store(y.plan.hashes[i], *y.payloads[i]);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(y.plan.hashes.size()));
}
BENCHMARK(BM_CacheStore)->Unit(benchmark::kMillisecond);

void BM_CacheLoad(benchmark::State& state) {
  Yield2k& y = yield2k();
  sc::ResultCache cache(y.root + "/load");
  cache.ensure_writable();
  for (std::size_t i = 0; i < y.plan.hashes.size(); ++i) {
    cache.store(y.plan.hashes[i], *y.payloads[i]);
  }
  for (auto _ : state) {
    for (const auto& hash : y.plan.hashes) benchmark::DoNotOptimize(cache.load(hash));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(y.plan.hashes.size()));
}
BENCHMARK(BM_CacheLoad)->Unit(benchmark::kMillisecond);

void BM_ReportBuild(benchmark::State& state) {
  Yield2k& y = yield2k();
  for (auto _ : state) {
    benchmark::DoNotOptimize(json::dump(sc::build_report(y.spec, y.plan, y.payloads)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(y.plan.jobs.size()));
}
BENCHMARK(BM_ReportBuild)->Unit(benchmark::kMillisecond);

void BM_BatchFabricate(benchmark::State& state) {
  auto config = adc::pipeline::nominal_design();
  config.fidelity = adc::common::FidelityProfile::kFast;
  std::vector<std::uint64_t> seeds(adc::batch::kLanes);
  for (std::size_t d = 0; d < seeds.size(); ++d) seeds[d] = 42 + d;
  for (auto _ : state) benchmark::DoNotOptimize(adc::batch::BatchConverter(config, seeds));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(seeds.size()));
}
BENCHMARK(BM_BatchFabricate)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  benchmark::AddCustomContext("simulator_build_type", "debug");
#else
  benchmark::AddCustomContext("simulator_build_type", "release");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
