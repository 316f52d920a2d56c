/// \file inl_spectrum.hpp
/// Test oracle: harmonic prediction from static linearity. Only
/// test_inl_spectrum links it.
///
/// A converter's INL curve *is* its static transfer error; driving a sine
/// through it predicts the static part of the measured harmonics (the
/// frequency-independent floor of the paper's Fig. 6). Comparing the
/// prediction against the measured low-frequency spectrum separates static
/// error (capacitor mismatch, charge injection, finite gain) from dynamic
/// error (tracking, settling, jitter) — a standard characterization
/// cross-check, implemented here by sampling the INL over one sine period
/// and reading its Fourier series.
#pragma once

#include <span>
#include <vector>

namespace adc::dsp {

/// Predicted static harmonics.
struct InlSpectrumResult {
  /// harmonic_dbc[h] is the level of HD(h) relative to the fundamental,
  /// for h = 2..max_harmonic (index 0/1 unused, set to -inf-ish).
  std::vector<double> harmonic_dbc;
  /// All predicted harmonics 2..max summed [dBc].
  double thd_db = 0.0;
  /// Largest single predicted harmonic [dBc] and its order.
  double worst_dbc = 0.0;
  int worst_order = 0;
};

/// Predict the harmonics a full-scale-fraction `amplitude_fraction` sine
/// would show, given the INL curve `inl_lsb` (one entry per output code, in
/// LSB, as produced by histogram_linearity/edges_linearity) of a `bits`-bit
/// converter. `max_harmonic` bounds the prediction order.
[[nodiscard]] InlSpectrumResult predict_harmonics_from_inl(std::span<const double> inl_lsb,
                                                           int bits,
                                                           double amplitude_fraction = 0.985,
                                                           int max_harmonic = 10);

}  // namespace adc::dsp
