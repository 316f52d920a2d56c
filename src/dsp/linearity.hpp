/// \file linearity.hpp
/// Static-linearity extraction: DNL and INL via the sine-wave histogram
/// (code-density) method, plus helpers for missing-code and monotonicity
/// checks. This reproduces the measurement behind the paper's Table I rows
/// "DNL +/-1.2 LSB" and "INL -1.5/+1 LSB".
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace adc::dsp {

/// Result of a static-linearity measurement.
struct LinearityResult {
  int bits = 0;
  /// DNL per code transition, in LSB. Index k is the differential
  /// non-linearity of code k (codes 1..2^bits-2; the two end codes are not
  /// defined and are stored as 0).
  std::vector<double> dnl;
  /// INL per code, in LSB (endpoint-corrected cumulative sum of DNL).
  std::vector<double> inl;

  double dnl_min = 0.0;
  double dnl_max = 0.0;
  double inl_min = 0.0;
  double inl_max = 0.0;

  /// Codes with an estimated width of zero (DNL == -1).
  std::vector<int> missing_codes;
  /// Total samples used.
  std::size_t sample_count = 0;
};

/// Sine-histogram DNL/INL. `codes` must come from a sine that slightly
/// overdrives both ends of the converter's range so every code is hit; the
/// standard arcsine probability-density correction is applied. `bits` is the
/// converter resolution. Requires a few hundred samples per code on average
/// for a trustworthy estimate (the bench uses >= 4M samples for 12 bits).
/// Throws MeasurementError if the record never reaches the end codes.
[[nodiscard]] LinearityResult histogram_linearity(std::span<const int> codes, int bits);

/// DNL/INL from an explicitly measured transfer function: `edges[k]` is the
/// input voltage of the transition between code k and k+1 (size 2^bits - 1).
/// The tests' exact reference for the histogram method, fed by
/// testbench::extract_transfer_edges.
[[nodiscard]] LinearityResult edges_linearity(std::span<const double> edges, int bits);

/// True when the code sequence produced by a monotonically increasing input
/// never decreases.
[[nodiscard]] bool is_monotonic(std::span<const int> codes_from_ramp);

}  // namespace adc::dsp
