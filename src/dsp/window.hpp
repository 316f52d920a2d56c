/// \file window.hpp
/// Window functions for spectral analysis of captured ADC output.
///
/// Coherent captures (the default in the measurement harness, mirroring the
/// paper's bench) use the rectangular window; non-coherent captures use a
/// 4-term Blackman-Harris whose -92 dB sidelobes sit below a 12-bit
/// converter's noise floor.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

namespace adc::dsp {

enum class WindowType {
  kRectangular,
  kHann,
  kBlackmanHarris4,  ///< 4-term Blackman-Harris, -92 dB sidelobes.
};

/// Generate the window coefficients of length n (n >= 1).
[[nodiscard]] std::vector<double> make_window(WindowType type, std::size_t n);

/// One cached window realization: the coefficients plus the gains every
/// spectral measurement needs. Immutable and shared between threads.
struct WindowTable {
  std::vector<double> coeff;
  double coherent_gain = 1.0;  ///< sum(w)/n
  double noise_gain = 1.0;     ///< sum(w^2)/n
};

/// Process-wide cached window for (type, n). A sweep reanalyzes records of
/// one length ~15 times; the trig to build the window (and the gain sums) is
/// paid once.
[[nodiscard]] std::shared_ptr<const WindowTable> shared_window(WindowType type, std::size_t n);

/// Coherent gain: sum(w)/n. Scales tone amplitudes measured through the window.
[[nodiscard]] double coherent_gain(std::span<const double> window);

/// Noise gain: sum(w^2)/n. Scales noise power measured through the window.
[[nodiscard]] double noise_gain(std::span<const double> window);

/// Equivalent noise bandwidth in bins: n*sum(w^2)/sum(w)^2.
[[nodiscard]] double enbw_bins(std::span<const double> window);

/// Number of FFT bins on each side of a tone's centre bin that hold
/// significant leakage energy for this window; the spectrum analyser
/// integrates (2*span+1) bins per tone.
[[nodiscard]] std::size_t leakage_span_bins(WindowType type);

/// Multiply x by the window in place. Sizes must match.
void apply_window(std::span<double> x, std::span<const double> window);

}  // namespace adc::dsp
