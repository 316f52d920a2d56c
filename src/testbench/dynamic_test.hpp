/// \file dynamic_test.hpp
/// The dynamic (single-tone) characterization bench.
///
/// Mirrors the paper's measurement setup: a filtered sine near full scale is
/// applied, a coherent record is captured and FFT'd, and SNR/SNDR/SFDR/ENOB
/// are read from the spectrum. The tone frequency is snapped to the nearest
/// odd coherent bin so the rectangular window applies.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/units.hpp"
#include "dsp/signal.hpp"
#include "dsp/spectrum.hpp"
#include "pipeline/adc.hpp"

namespace adc::testbench {

using namespace adc::common::literals;

/// Options for one dynamic measurement.
struct DynamicTestOptions {
  std::size_t record_length = 1 << 13;
  /// Requested input frequency [Hz]; snapped to the nearest odd coherent bin.
  double target_fin_hz = 10.0_MHz;
  /// Signal amplitude as a fraction of full scale (the paper measures "near
  /// full scale", 2 V_P-P).
  double amplitude_fraction = 0.985;
  /// Analysis options (window, harmonic count).
  adc::dsp::SpectrumOptions spectrum;
  /// Number of records whose *power spectra* are averaged before the
  /// metrics are read (bench practice for tightening the noise estimate;
  /// tone and spur levels are unaffected, their variance shrinks).
  int averages = 1;
};

/// Result: the exact tone used plus the spectral metrics.
struct DynamicTestResult {
  adc::dsp::CoherentTone tone;
  adc::dsp::SpectrumMetrics metrics;
};

/// Run one dynamic measurement on a realized converter.
[[nodiscard]] DynamicTestResult run_dynamic_test(adc::pipeline::PipelineAdc& adc,
                                                 const DynamicTestOptions& options = {});

/// Run the same dynamic measurement on many fabricated dies (each seed
/// overrides base.seed). Dies are partitioned into blocks of
/// adc::batch::unit_lanes dies and the blocks distributed over the runtime
/// pool; a block routes through the batch conversion engine when the
/// configuration is inside its contract (fast fidelity profile) and the
/// block holds at least adc::batch::kMinBatchDies dies — otherwise it
/// converts die by die.
/// Either way each entry of the result is byte-identical to calling
/// run_dynamic_test on a fresh PipelineAdc fabricated with that seed, in
/// seed order, at any thread count (0 = runtime default).
[[nodiscard]] std::vector<DynamicTestResult> run_dynamic_test_dies(
    const adc::pipeline::AdcConfig& base, std::span<const std::uint64_t> seeds,
    const DynamicTestOptions& options = {}, int threads = 0);

/// One die of a block measurement: its configuration and its tone request.
/// The dies of one batched block may differ in seed, conversion rate, input
/// frequency and amplitude (adc::batch::BatchConverter rejects anything
/// else).
struct DieTest {
  adc::pipeline::AdcConfig config;
  /// Requested input frequency [Hz]; snapped to the nearest odd coherent bin
  /// at this die's conversion rate.
  double target_fin_hz = 10.0_MHz;
  /// Signal amplitude as a fraction of full scale.
  double amplitude_fraction = 0.985;
};

/// The synchronous building block of run_dynamic_test_dies: measure the
/// given dies on the calling thread, adc::batch::kLanes dies at a time,
/// routing each chunk through the batch engine when supported and large
/// enough. `options` supplies the record length, spectrum options and
/// averages of every die; each die's target frequency and amplitude replace
/// the ones in `options`. Entry d is byte-identical to run_dynamic_test on
/// a fresh PipelineAdc fabricated from dies[d].config with those options.
/// Exposed so callers that already sit inside a runtime-pool job (the
/// scenario runner's execute phase) can batch without nesting parallel_map.
[[nodiscard]] std::vector<DynamicTestResult> run_dynamic_test_block(
    std::span<const DieTest> dies, const DynamicTestOptions& options = {});

}  // namespace adc::testbench
