/// \file dynamic_test.hpp
/// The dynamic (single-tone) characterization bench.
///
/// Mirrors the paper's measurement setup: a filtered sine near full scale is
/// applied, a coherent record is captured and FFT'd, and SNR/SNDR/SFDR/ENOB
/// are read from the spectrum. The tone frequency is snapped to the nearest
/// odd coherent bin so the rectangular window applies.
#pragma once

#include <cstddef>
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

/// One die of a block measurement: its configuration and its tone request.
struct DieTest {
  adc::pipeline::AdcConfig config;
  /// Requested input frequency [Hz]; snapped to the nearest odd coherent bin
  /// at this die's conversion rate.
  double target_fin_hz = 10.0_MHz;
  /// Signal amplitude as a fraction of full scale.
  double amplitude_fraction = 0.985;
};

/// Measure many dies on the calling thread. `options` supplies the record
/// length, spectrum options and averages of every die; each die's target
/// frequency and amplitude replace the ones in `options`. Entry d is
/// byte-identical to run_dynamic_test on a fresh PipelineAdc fabricated from
/// dies[d].config with those options.
///
/// The one place that chooses between the batch conversion engine and
/// die-by-die conversion: the dies are cut into consecutive runs of at most
/// adc::batch::kLanes dies whose configurations share a block with the
/// run's first die (adc::batch::BatchConverter::shares_block), a run of at
/// least adc::batch::kMinBatchDies dies converts as one batched block, and
/// shorter runs convert die by die. Any non-empty list is valid input: dies
/// at several temperatures, or under the exact profile, simply form more
/// runs. Submits nothing to the runtime pool, so a pool job (the scenario
/// runner's execute unit) may call it.
[[nodiscard]] std::vector<DynamicTestResult> run_dynamic_test_block(
    std::span<const DieTest> dies, const DynamicTestOptions& options = {});

}  // namespace adc::testbench
