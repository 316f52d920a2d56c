/// \file perf_simulator.cpp
/// google-benchmark micro-benchmarks for the simulator kernels: conversion
/// throughput (one die, one-rate batch blocks and mixed-rate ones, and the
/// batch kernel split into its noise fill and its stage chain), FFT,
/// and the full dynamic-test loop. These guard the cost of
/// the Monte-Carlo sweeps (a Fig. 5 sweep runs ~15 captures of 8k samples),
/// plus the parallel runtime itself: pool fan-out overhead and the
/// end-to-end Monte-Carlo / rate-sweep workloads at 1 and N threads (the
/// serial-vs-parallel pair is the speedup the runtime exists to deliver),
/// the scenario cache's store path, one entry per file against packs, its
/// load path, one name per call against a pack's names, the plan's job
/// hashes at 1 and N threads, and the report writer with the double
/// formatter under it.
/// `tools/run_bench.sh` runs this binary with JSON output as the repo's
/// performance trajectory artifact.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "batch/batch_api.hpp"
#include "batch/converter.hpp"
#include "common/counter_rng.hpp"
#include "common/counter_rng_tile.hpp"
#include "common/isa_dispatch.hpp"
#include "common/json.hpp"
#include "dsp/fft.hpp"
#include "dsp/signal.hpp"
#include "dsp/spectrum.hpp"
#include "pipeline/design.hpp"
#include "runtime/parallel.hpp"
#include "scenario/cache.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "testbench/dynamic_test.hpp"
#include "testbench/monte_carlo.hpp"
#include "testbench/sweep.hpp"

namespace {

void BM_ConvertNominal(benchmark::State& state) {
  adc::pipeline::PipelineAdc converter(adc::pipeline::nominal_design());
  const adc::dsp::SineSignal tone(0.985, 10.0037e6);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(converter.convert(tone, n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ConvertNominal)->Arg(1 << 10)->Arg(1 << 13);

// The same nominal die under the fast fidelity profile (counter-based noise
// planes + polynomial math kernels; common/fidelity.hpp). The ratio of this
// to BM_ConvertNominal is the profile's headline speedup.
void BM_ConvertNominalFast(benchmark::State& state) {
  auto config = adc::pipeline::nominal_design();
  config.fidelity = adc::common::FidelityProfile::kFast;
  adc::pipeline::PipelineAdc converter(config);
  const adc::dsp::SineSignal tone(0.985, 10.0037e6);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(converter.convert(tone, n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ConvertNominalFast)->Arg(1 << 10)->Arg(1 << 13);

// The batch engine on the same workload: one die-block through the SoA
// kernel at the runtime-selected ISA tier, at 8 dies (the narrowest kernel
// pass, one AVX-512 vector per lane temporary) and at adc::batch::kLanes = 32
// dies (the widest pass, four independent vectors). Items = samples x dies,
// so items_per_second compares directly against BM_ConvertNominalFast — the
// ratio is the batch engine's aggregate speedup (tools/compare_bench.py
// reports it as a scalar/batch pair).
void BM_ConvertNominalFastBatch(benchmark::State& state) {
  auto config = adc::pipeline::nominal_design();
  config.fidelity = adc::common::FidelityProfile::kFast;
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(state.range(1)));
  for (std::size_t d = 0; d < seeds.size(); ++d) {
    seeds[d] = adc::pipeline::kNominalSeed + d;
  }
  adc::batch::BatchConverter converter(config, seeds);
  const adc::dsp::SineSignal tone(0.985, 10.0037e6);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(converter.convert(tone, n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * seeds.size()));
}
constexpr std::int64_t kWidestBlock = adc::batch::kLanes;
BENCHMARK(BM_ConvertNominalFastBatch)->ArgsProduct({{1 << 10, 1 << 13}, {8, kWidestBlock}});

/// A fast rate sweep's dies: `count` dies at distinct seeds and at rates
/// 20, 25, ... MHz, each with a 10 MHz tone (capped at 0.9 f_CR/2) snapped
/// to its own coherent bin over `n` samples — the sweep-scalar workload's
/// shape.
struct RateSweepDies {
  std::vector<adc::pipeline::AdcConfig> configs;
  std::vector<adc::dsp::SineSignal> tones;
  std::vector<const adc::dsp::Signal*> signals;

  RateSweepDies(std::size_t count, std::size_t n) {
    for (std::size_t d = 0; d < count; ++d) {
      auto config = adc::pipeline::nominal_design(adc::pipeline::kNominalSeed + d);
      config.fidelity = adc::common::FidelityProfile::kFast;
      config.conversion_rate = 20e6 + 5e6 * static_cast<double>(d);
      const double fin = std::min(10e6, 0.45 * config.conversion_rate);
      const auto coherent = adc::dsp::coherent_frequency(fin, config.conversion_rate, n);
      configs.push_back(config);
      tones.emplace_back(0.985, coherent.frequency_hz);
    }
    for (const auto& tone : tones) signals.push_back(&tone);
  }
};

// A 32-rate sweep converted die by die, each die at its own rate and tone —
// what every sweep-scalar unit ran before blocks could mix rates. Items =
// samples x dies, the same count as the batch twin below.
void BM_ConvertRateSweepFast(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const RateSweepDies sweep(adc::batch::kLanes, n);
  std::vector<adc::pipeline::PipelineAdc> dies(sweep.configs.begin(), sweep.configs.end());
  for (auto _ : state) {
    for (std::size_t d = 0; d < dies.size(); ++d) {
      benchmark::DoNotOptimize(dies[d].convert(*sweep.signals[d], n));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * dies.size()));
}
BENCHMARK(BM_ConvertRateSweepFast)->Arg(1 << 13);

// The same 32 dies as one mixed-rate block through the batch engine: per-lane
// clock periods, settle windows, recharge factors and tones. Its ratio to
// BM_ConvertRateSweepFast is the layer speedup of batching a rate sweep; its
// gap to BM_ConvertNominalFastBatch/8192/32 (one rate, one tone) is the cost
// of the per-lane loads plus the slew arm the fast lanes take.
void BM_ConvertRateSweepFastBatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const RateSweepDies sweep(static_cast<std::size_t>(state.range(1)), n);
  adc::batch::BatchConverter converter(sweep.configs);
  for (auto _ : state) {
    benchmark::DoNotOptimize(converter.convert(sweep.signals, n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * sweep.configs.size()));
}
BENCHMARK(BM_ConvertRateSweepFastBatch)->Args({1 << 13, kWidestBlock});

// The Philox + Box-Muller noise fill in isolation — the term that was
// 41-58% of batch conversion time under fast contract v1 and the direct
// target of the v2 division-free draw math. Scalar twin: the baseline-ISA
// fill every per-die conversion uses. Items = deviates.
void BM_NoiseFill(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> out(n);
  std::uint64_t epoch = 0;
  for (auto _ : state) {
    adc::common::philox_normal_fill(adc::pipeline::kNominalSeed, ++epoch, 0,
                                    std::span<double>(out));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_NoiseFill)->Arg(1 << 13)->Arg(1 << 16);

// The same fill through the batch engine's runtime-dispatched kernel (the
// widest tier the CPU executes — see the batch_isa context key). The ratio
// to BM_NoiseFill is the draw pipeline's own ISA speedup, separated from
// the stage-chain arithmetic that surrounds it in the conversion pairs.
void BM_NoiseFillBatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> out(n);
  const auto& ops = adc::batch::kernel_ops(adc::common::active_batch_isa());
  std::uint64_t epoch = 0;
  for (auto _ : state) {
    ops.normal_fill(adc::pipeline::kNominalSeed, ++epoch, 0, out.data(), n);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_NoiseFillBatch)->Arg(1 << 13)->Arg(1 << 16);

// The batch kernel's conversion split into its two layers, at the runtime
// tier on the BM_ConvertNominalFastBatch/8192/32 workload. Items = samples x
// dies in both, so each reads directly against the conversion pair and the
// two should sum to it within noise.
//
// BM_NoiseFillRowsBatch: the noise fill alone, as convert_capture runs it:
// the eager blocks only (11 of the 18 Philox blocks of a nominal sample),
// lane-minor, chunk by chunk.
void BM_NoiseFillRowsBatch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));
  auto config = adc::pipeline::nominal_design();
  config.fidelity = adc::common::FidelityProfile::kFast;
  const adc::pipeline::PipelineAdc ref(config);
  std::vector<std::uint64_t> keys;
  for (std::size_t d = 0; d < lanes; ++d) {
    config.seed = adc::pipeline::kNominalSeed + d;
    keys.push_back(adc::pipeline::PipelineAdc(config).noise_plane_key());
  }
  const std::size_t slots = ref.noise_slots_per_sample();
  const adc::common::tile::BlockList eager = ref.eager_blocks();
  std::vector<double> plane(adc::batch::kChunkSamples * slots * lanes);
  const auto& ops = adc::batch::kernel_ops(adc::common::active_batch_isa());
  std::uint64_t epoch = 0;
  for (auto _ : state) {
    ++epoch;
    for (std::size_t base = 0; base < n; base += adc::batch::kChunkSamples) {
      const std::size_t count = std::min(adc::batch::kChunkSamples, n - base);
      ops.normal_rows(lanes, keys.data(), epoch, base * slots, count * slots, eager,
                      plane.data());
      benchmark::DoNotOptimize(plane.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * lanes));
}
BENCHMARK(BM_NoiseFillRowsBatch)->Args({1 << 13, kWidestBlock});

// BM_StageChainBatch: the rest of the kernel pass — front end, stimulus,
// stage chain, correction — on pre-filled rows (BatchConverter::
// convert_chain_only), elided-draw refetches included.
void BM_StageChainBatch(benchmark::State& state) {
  auto config = adc::pipeline::nominal_design();
  config.fidelity = adc::common::FidelityProfile::kFast;
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(state.range(1)));
  for (std::size_t d = 0; d < seeds.size(); ++d) {
    seeds[d] = adc::pipeline::kNominalSeed + d;
  }
  adc::batch::BatchConverter converter(config, seeds);
  const adc::dsp::SineSignal tone(0.985, 10.0037e6);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(converter.convert_chain_only(tone, n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * seeds.size()));
}
BENCHMARK(BM_StageChainBatch)->Args({1 << 13, kWidestBlock});

void BM_ConvertIdeal(benchmark::State& state) {
  adc::pipeline::PipelineAdc converter(adc::pipeline::ideal_design());
  const adc::dsp::SineSignal tone(0.985, 10.0037e6);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(converter.convert(tone, n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ConvertIdeal)->Arg(1 << 13);

void BM_FftReal(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = std::sin(0.01 * static_cast<double>(i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(adc::dsp::fft_real(x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_FftReal)->Arg(1 << 13)->Arg(1 << 16);

void BM_AnalyzeTone(benchmark::State& state) {
  const std::size_t n = 1 << 13;
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = std::sin(2.0 * 3.14159265358979 * 745.0 * static_cast<double>(i) /
                    static_cast<double>(n));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(adc::dsp::analyze_tone(x, 110e6));
  }
}
BENCHMARK(BM_AnalyzeTone);

void BM_FullDynamicTest(benchmark::State& state) {
  adc::pipeline::PipelineAdc converter(adc::pipeline::nominal_design());
  adc::testbench::DynamicTestOptions opt;
  opt.record_length = 1 << 12;
  for (auto _ : state) {
    benchmark::DoNotOptimize(adc::testbench::run_dynamic_test(converter, opt));
  }
}
BENCHMARK(BM_FullDynamicTest);

void BM_DcConversion(benchmark::State& state) {
  adc::pipeline::PipelineAdc converter(adc::pipeline::nominal_design());
  double v = -0.9;
  for (auto _ : state) {
    benchmark::DoNotOptimize(converter.convert_dc(v));
    v += 1e-4;
    if (v > 0.9) v = -0.9;
  }
}
BENCHMARK(BM_DcConversion);

// --- Parallel runtime -------------------------------------------------------

// Pure scheduling overhead: fan N trivial jobs through the pool and wait.
void BM_RuntimeFanout(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    auto out = adc::runtime::parallel_map<double>(
        n, [](std::size_t i) { return static_cast<double>(i) * 1.0000001; });
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RuntimeFanout)->Arg(64)->Arg(512);

// The mc_yield workload shape at thread count = state.range(0) (0 = default).
// Comparing threads=1 against the default count measures the real speedup.
void BM_MonteCarloSndr(benchmark::State& state) {
  adc::testbench::MonteCarloOptions mc;
  mc.num_dies = 8;
  mc.first_seed = 42;
  mc.threads = static_cast<int>(state.range(0));
  const auto metric = [](adc::pipeline::PipelineAdc& die) {
    adc::testbench::DynamicTestOptions opt;
    opt.record_length = 1 << 10;
    return adc::testbench::run_dynamic_test(die, opt).metrics.sndr_db;
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        adc::testbench::run_monte_carlo(adc::pipeline::nominal_design(), metric, mc));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * mc.num_dies);
}
BENCHMARK(BM_MonteCarloSndr)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

// End-to-end yield-style workload under the fast profile: 16 dies, full
// dynamic test (capture + FFT + metrics) per die. The scalar variant runs
// the per-die loop; the Batch variant is the same workload through
// run_dynamic_test_block and the batch conversion engine. Single-threaded
// on purpose so the pair isolates the engine, not the pool; items = dies x
// record samples, directly comparable across the pair.
void BM_MonteCarloFastSndr(benchmark::State& state) {
  auto config = adc::pipeline::nominal_design();
  config.fidelity = adc::common::FidelityProfile::kFast;
  adc::testbench::DynamicTestOptions test;
  test.record_length = 1 << 11;
  adc::testbench::MonteCarloOptions mc;
  mc.num_dies = 16;
  mc.first_seed = 42;
  mc.threads = 1;
  const auto metric = [&test](adc::pipeline::PipelineAdc& die) {
    return adc::testbench::run_dynamic_test(die, test).metrics.sndr_db;
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(adc::testbench::run_monte_carlo(config, metric, mc));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * mc.num_dies *
                          static_cast<std::int64_t>(test.record_length));
}
BENCHMARK(BM_MonteCarloFastSndr)->Unit(benchmark::kMillisecond);

void BM_MonteCarloFastSndrBatch(benchmark::State& state) {
  auto config = adc::pipeline::nominal_design();
  config.fidelity = adc::common::FidelityProfile::kFast;
  adc::testbench::DynamicTestOptions test;
  test.record_length = 1 << 11;
  std::vector<adc::testbench::DieTest> dies(
      16, {config, test.target_fin_hz, test.amplitude_fraction});
  for (std::size_t d = 0; d < dies.size(); ++d) dies[d].config.seed = 42 + d;
  for (auto _ : state) {
    const auto results = adc::testbench::run_dynamic_test_block(dies, test);
    std::vector<double> sndr;
    sndr.reserve(results.size());
    for (const auto& r : results) sndr.push_back(r.metrics.sndr_db);
    benchmark::DoNotOptimize(std::accumulate(sndr.begin(), sndr.end(), 0.0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(dies.size()) *
                          static_cast<std::int64_t>(test.record_length));
}
BENCHMARK(BM_MonteCarloFastSndrBatch)->Unit(benchmark::kMillisecond);

// The Fig. 5 workload shape: a conversion-rate sweep, serial vs parallel.
void BM_RateSweep(benchmark::State& state) {
  const auto cfg = adc::pipeline::nominal_design();
  adc::testbench::DynamicTestOptions opt;
  opt.record_length = 1 << 10;
  const std::vector<double> rates{20e6, 60e6, 110e6, 140e6};
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    const adc::runtime::ScopedThreadOverride pin(
        threads > 0 ? threads : adc::runtime::default_thread_count());
    benchmark::DoNotOptimize(adc::testbench::sweep_conversion_rate(cfg, rates, opt));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rates.size()));
}
BENCHMARK(BM_RateSweep)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

// --- Scenario cache ---------------------------------------------------------

/// scenarios/yield2k.json: 2000 fast-profile dies, one payload each.
constexpr const char* kYield2k = R"({
  "name": "yield2k",
  "stimulus": {"type": "tone", "frequency_hz": 10e6, "amplitude_fraction": 0.985,
               "record_length": 2048},
  "measurement": {"type": "yield", "metric": "sndr_db", "limit": 63.0},
  "die": {"fidelity": "fast"},
  "seeds": {"first": 42, "count": 2000}
})";

/// A scratch cache root under the working directory, removed at exit.
struct ScratchRoot {
  std::string path;

  ScratchRoot() {
    std::string pattern = "./perf_simulator_cache.XXXXXX";
    if (::mkdtemp(pattern.data()) == nullptr) throw std::runtime_error("mkdtemp failed");
    path = pattern;
  }
  ~ScratchRoot() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  ScratchRoot(const ScratchRoot&) = delete;
  ScratchRoot& operator=(const ScratchRoot&) = delete;
};

/// The yield2k plan with its 2000 computed payloads (built once, on first
/// use) and a scratch cache root.
struct CachePayloads {
  adc::scenario::ScenarioSpec spec = adc::scenario::parse_spec_text(kYield2k);
  adc::scenario::ScenarioPlan plan = adc::scenario::plan_scenario(spec);
  std::vector<std::optional<adc::common::json::JsonValue>> payloads;
  ScratchRoot root;

  CachePayloads() {
    payloads.resize(plan.jobs.size());
    (void)adc::scenario::execute_plan(spec, plan, payloads, {});
  }
};

const CachePayloads& yield2k_payloads() {
  static const CachePayloads fixture;
  return fixture;
}

// 2000 real payloads stored into an emptied cache root, Arg entries per
// store call: 1 is the one-file-per-entry store, 32 a full execute unit's
// pack (one inode, 32 links). The gap is the inode creations saved.
void BM_CacheStore(benchmark::State& state) {
  const CachePayloads& fixture = yield2k_payloads();
  const auto per_call = static_cast<std::size_t>(state.range(0));
  const std::string root = fixture.root.path + "/store" + std::to_string(per_call);
  std::vector<adc::scenario::CacheEntry> entries;
  for (std::size_t i = 0; i < fixture.plan.hashes.size(); ++i) {
    entries.push_back({fixture.plan.hashes[i], *fixture.payloads[i]});
  }
  const std::span<const adc::scenario::CacheEntry> all(entries);
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(root);
    adc::scenario::ResultCache cache(root);
    cache.ensure_writable();
    state.ResumeTiming();
    for (std::size_t first = 0; first < all.size(); first += per_call) {
      cache.store(all.subspan(first, std::min(per_call, all.size() - first)));
    }
    benchmark::DoNotOptimize(cache.stores());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(all.size()));
}
BENCHMARK(BM_CacheStore)->Arg(1)->Arg(32)->Unit(benchmark::kMillisecond);

// yield2k's 2000 job hashes claimed and released into an emptied cache
// root, Arg hashes per call, as a fleet worker gates its execute units: 1
// writes one claim file per job, 32 one per unit (one inode, 32 links).
void BM_CacheClaim(benchmark::State& state) {
  static const adc::scenario::ScenarioPlan plan =
      adc::scenario::plan_scenario(adc::scenario::parse_spec_text(kYield2k));
  static const ScratchRoot scratch;
  const auto per_call = static_cast<std::size_t>(state.range(0));
  const std::string root = scratch.path + "/claim" + std::to_string(per_call);
  const std::span<const std::string> all(plan.hashes);
  for (auto _ : state) {
    state.PauseTiming();
    std::filesystem::remove_all(root);
    adc::scenario::ResultCache cache(root);
    cache.ensure_writable();
    state.ResumeTiming();
    for (std::size_t first = 0; first < all.size(); first += per_call) {
      const auto unit = all.subspan(first, std::min(per_call, all.size() - first));
      benchmark::DoNotOptimize(cache.try_claim(unit, "bench", 1000, 60000));
      cache.release_claim(unit, "bench");
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(all.size()));
}
BENCHMARK(BM_CacheClaim)->Arg(1)->Arg(32)->Unit(benchmark::kMillisecond);

// yield2k's 2000 job hashes, at Arg threads (plan_scenario hashes chunks of
// kPlanChunk jobs on the pool; 1 hashes them on the caller).
void BM_PlanScenario(benchmark::State& state) {
  const auto spec = adc::scenario::parse_spec_text(kYield2k);
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) benchmark::DoNotOptimize(adc::scenario::plan_scenario(spec, threads));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 2000);
}
BENCHMARK(BM_PlanScenario)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// yield2k's 2000 names loaded from a cache of 32-name packs (a 4-thread
// cold run's layout), Arg names per load call on one thread: 1 reads the
// whole pack behind every name, 32 reads each pack once per call.
void BM_CacheProbe(benchmark::State& state) {
  const CachePayloads& fixture = yield2k_payloads();
  const auto per_call = static_cast<std::size_t>(state.range(0));
  const std::string root = fixture.root.path + "/probe";
  adc::scenario::ResultCache cache(root);
  if (cache.stats().entries != fixture.plan.hashes.size()) {
    cache.ensure_writable();
    std::vector<adc::scenario::CacheEntry> entries;
    for (std::size_t i = 0; i < fixture.plan.hashes.size(); ++i) {
      entries.push_back({fixture.plan.hashes[i], *fixture.payloads[i]});
    }
    for (std::size_t first = 0; first < entries.size(); first += 32) {
      cache.store(std::span(entries).subspan(first, std::min<std::size_t>(32, entries.size() - first)));
    }
  }
  const std::span<const std::string> all(fixture.plan.hashes);
  for (auto _ : state) {
    for (std::size_t first = 0; first < all.size(); first += per_call) {
      const auto names = all.subspan(first, std::min(per_call, all.size() - first));
      if (per_call == 1) {
        benchmark::DoNotOptimize(cache.load(names.front()));
      } else {
        benchmark::DoNotOptimize(cache.load(names));
      }
    }
  }
  if (cache.misses() != 0) state.SkipWithError("the probe missed the cache");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(all.size()));
}
BENCHMARK(BM_CacheProbe)->Arg(1)->Arg(32)->Unit(benchmark::kMillisecond);

// --- Report writer ----------------------------------------------------------

// json::format_double over 4096 doubles. Arg 0: SNDR-like results, which
// need 16 or 17 significant digits to round-trip; Arg 1: configuration-like
// values (110e6, 1.8, ...), which 15 digits spell.
void BM_FormatDouble(benchmark::State& state) {
  std::vector<double> values(4096);
  const double config[] = {110e6, 1.8, 0.985, 10e6, 63.0, 2048.0, 1e-12, 0.5};
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = state.range(0) == 0 ? 64.0 + static_cast<double>(i) / 3.0e3
                                    : config[i % std::size(config)];
  }
  for (auto _ : state) {
    for (const double v : values) benchmark::DoNotOptimize(adc::common::json::format_double(v));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_FormatDouble)->Arg(0)->Arg(1);

// The yield2k report (2000 rows) rendered as a run writes it: the pretty
// JSON document and the CSV.
void BM_ReportWrite(benchmark::State& state) {
  const CachePayloads& fixture = yield2k_payloads();
  const auto report = adc::scenario::build_report(fixture.spec, fixture.plan, fixture.payloads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(adc::common::json::dump(report));
    benchmark::DoNotOptimize(adc::scenario::report_csv(report));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fixture.plan.jobs.size()));
}
BENCHMARK(BM_ReportWrite)->Unit(benchmark::kMillisecond);

// The same report rendered as write_report_files renders it, to parts in
// memory and without file I/O: rows in chunks of kPlanChunk on Arg threads.
void BM_ReportRender(benchmark::State& state) {
  const CachePayloads& fixture = yield2k_payloads();
  const auto report = adc::scenario::build_report(fixture.spec, fixture.plan, fixture.payloads);
  const auto threads = static_cast<unsigned>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(adc::scenario::render_report(report, threads));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fixture.plan.jobs.size()));
}
BENCHMARK(BM_ReportRender)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): the emitted JSON must carry
// trustworthy provenance. The library's own "library_build_type" context
// reports how *libbenchmark* was compiled (Debian's package ships a
// no-NDEBUG build that always says "debug"), not how this simulator was
// compiled — so we emit our own context keys and tools/run_bench.sh
// verifies them after every run.
int main(int argc, char** argv) {
  benchmark::AddCustomContext("simulator_build_type",
#ifdef NDEBUG
                              "release"
#else
                              "debug"
#endif
  );
  benchmark::AddCustomContext("batch_isa",
                              adc::common::to_string(adc::common::active_batch_isa()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
