#include "testbench/dynamic_test.hpp"

#include <utility>

#include "batch/converter.hpp"
#include "common/error.hpp"

namespace adc::testbench {

DynamicTestResult run_dynamic_test(adc::pipeline::PipelineAdc& adc,
                                   const DynamicTestOptions& options) {
  adc::common::require(options.amplitude_fraction > 0.0 && options.amplitude_fraction <= 1.05,
                       "run_dynamic_test: amplitude fraction outside (0, 1.05]");
  const double fs = adc.conversion_rate();
  const std::size_t n = options.record_length;

  DynamicTestResult result;
  result.tone = adc::dsp::coherent_frequency(options.target_fin_hz, fs, n);

  adc::common::require(options.averages >= 1, "run_dynamic_test: averages must be >= 1");
  const double amplitude = options.amplitude_fraction * adc.full_scale_vpp() / 2.0;
  const adc::dsp::SineSignal tone(amplitude, result.tone.frequency_hz);

  adc::dsp::SpectrumOptions spec = options.spectrum;
  spec.fundamental_bin = result.tone.cycles;
  if (options.averages == 1) {
    const auto codes = adc.convert(tone, n);
    const auto volts =
        adc::dsp::codes_to_volts(codes, adc.resolution_bits(), adc.full_scale_vpp());
    result.metrics = adc::dsp::analyze_tone(volts, fs, spec);
  } else {
    std::vector<std::vector<double>> records;
    records.reserve(static_cast<std::size_t>(options.averages));
    for (int r = 0; r < options.averages; ++r) {
      const auto codes = adc.convert(tone, n);
      records.push_back(
          adc::dsp::codes_to_volts(codes, adc.resolution_bits(), adc.full_scale_vpp()));
    }
    result.metrics = adc::dsp::analyze_tone_averaged(records, fs, spec);
  }
  return result;
}

namespace {

/// `options` with one die's tone request.
DynamicTestOptions die_options(const DieTest& die, const DynamicTestOptions& options) {
  DynamicTestOptions out = options;
  out.target_fin_hz = die.target_fin_hz;
  out.amplitude_fraction = die.amplitude_fraction;
  return out;
}

/// Scalar fallback: fabricate and measure the block's dies one at a time.
std::vector<DynamicTestResult> run_block_scalar(std::span<const DieTest> dies,
                                                const DynamicTestOptions& options) {
  std::vector<DynamicTestResult> out;
  out.reserve(dies.size());
  for (const DieTest& d : dies) {
    adc::pipeline::PipelineAdc die(d.config);
    out.push_back(run_dynamic_test(die, die_options(d, options)));
  }
  return out;
}

/// Batch path: one BatchConverter per block, every capture runs all dies
/// through the SoA kernel. The tone setup mirrors run_dynamic_test line by
/// line, per die (its own rate, coherent snap and amplitude, the same
/// spectrum options), and the capture sequence per die matches the scalar
/// averages loop — each convert() advances every die's noise epoch exactly
/// once, like repeated scalar convert() calls on a per-die converter would.
/// Every capture is taken, and the converter (its plan and kernel
/// workspace) released, before the DSP runs: a pool thread's malloc arena
/// keeps its peak for the rest of the process, so that peak should hold the
/// converter or the DSP buffers, not both.
std::vector<DynamicTestResult> run_block_batched(std::span<const DieTest> dies,
                                                 const DynamicTestOptions& options) {
  const std::size_t n = options.record_length;
  const std::size_t count = dies.size();
  std::vector<double> fs(count);
  std::vector<adc::dsp::CoherentTone> coherent(count);
  double full_scale = 0.0;
  int bits = 0;
  // captures[r][d]: die d's codes in capture r.
  std::vector<std::vector<std::vector<int>>> captures;
  captures.reserve(static_cast<std::size_t>(options.averages));
  {
    // The configuration list is a temporary, freed before the captures
    // allocate, so it does not raise the pool thread's arena peak.
    adc::batch::BatchConverter conv([dies] {
      std::vector<adc::pipeline::AdcConfig> configs;
      configs.reserve(dies.size());
      for (const DieTest& d : dies) configs.push_back(d.config);
      return configs;
    }());
    full_scale = conv.full_scale_vpp();
    bits = conv.resolution_bits();
    std::vector<adc::dsp::SineSignal> tones;
    tones.reserve(count);
    for (std::size_t d = 0; d < count; ++d) {
      fs[d] = conv.conversion_rate(d);
      coherent[d] = adc::dsp::coherent_frequency(dies[d].target_fin_hz, fs[d], n);
      const double amplitude = dies[d].amplitude_fraction * full_scale / 2.0;
      tones.emplace_back(amplitude, coherent[d].frequency_hz);
    }
    std::vector<const adc::dsp::Signal*> signals;
    signals.reserve(count);
    for (const adc::dsp::SineSignal& tone : tones) signals.push_back(&tone);
    for (int r = 0; r < options.averages; ++r) captures.push_back(conv.convert(signals, n));
  }

  std::vector<DynamicTestResult> out(count);
  for (std::size_t d = 0; d < count; ++d) {
    adc::dsp::SpectrumOptions spec = options.spectrum;
    spec.fundamental_bin = coherent[d].cycles;
    out[d].tone = coherent[d];
    if (options.averages == 1) {
      const auto volts = adc::dsp::codes_to_volts(captures[0][d], bits, full_scale);
      out[d].metrics = adc::dsp::analyze_tone(volts, fs[d], spec);
    } else {
      std::vector<std::vector<double>> records;
      records.reserve(captures.size());
      for (const auto& capture : captures) {
        records.push_back(adc::dsp::codes_to_volts(capture[d], bits, full_scale));
      }
      out[d].metrics = adc::dsp::analyze_tone_averaged(records, fs[d], spec);
    }
  }
  return out;
}

}  // namespace

std::vector<DynamicTestResult> run_dynamic_test_block(std::span<const DieTest> dies,
                                                      const DynamicTestOptions& options) {
  adc::common::require(!dies.empty(), "run_dynamic_test_block: need at least one die");
  for (const DieTest& d : dies) {
    adc::common::require(d.amplitude_fraction > 0.0 && d.amplitude_fraction <= 1.05,
                         "run_dynamic_test: amplitude fraction outside (0, 1.05]");
  }
  adc::common::require(options.averages >= 1, "run_dynamic_test: averages must be >= 1");

  using adc::batch::BatchConverter;
  std::vector<DynamicTestResult> out;
  out.reserve(dies.size());
  std::size_t lo = 0;
  while (lo < dies.size()) {
    // The longest run from `lo`, up to one kernel block, whose dies share a
    // block with its first. shares_block is false outside the engine's
    // contract, so an unsupported die is a run of one.
    std::size_t hi = lo + 1;
    while (hi < dies.size() && hi - lo < adc::batch::kLanes &&
           BatchConverter::shares_block(dies[hi].config, dies[lo].config)) {
      ++hi;
    }
    const auto run = dies.subspan(lo, hi - lo);
    auto block = run.size() >= adc::batch::kMinBatchDies ? run_block_batched(run, options)
                                                         : run_block_scalar(run, options);
    for (auto& r : block) out.push_back(std::move(r));
    lo = hi;
  }
  return out;
}

}  // namespace adc::testbench
