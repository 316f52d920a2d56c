/// \file flash.hpp
/// The 2-bit flash converter terminating the pipeline chain.
///
/// 2^F - 1 comparators with thresholds spaced V_REF/2^(F-1) across the
/// +/- V_REF residue range; the code is the count of thresholds below the
/// input (thermometer to binary). Comparator offsets here hit the final LSBs
/// directly (no redundancy behind the flash), but those LSBs carry the
/// smallest weight.
#pragma once

#include <cstddef>
#include <vector>

#include "analog/comparator.hpp"
#include "common/random.hpp"
#include "digital/codes.hpp"

namespace adc::pipeline {

/// One realized back-end flash.
class FlashConverter {
 public:
  /// `bits` in 1..4; thresholds at (k - 2^(bits-1) + 1) * vref / 2^(bits-1)
  /// for k = 0 .. 2^bits - 2.
  FlashConverter(int bits, const adc::analog::ComparatorSpec& comparator_spec,
                 double vref_nominal, adc::common::Rng rng);

  /// Quantize the final residue (consumes comparator noise draws). `vref`
  /// is the effective reference this conversion; the ladder thresholds are
  /// fractions of it and track its drift, as they share the reference with
  /// the MDACs in silicon.
  [[nodiscard]] adc::digital::FlashCode quantize(double v, double vref);

  [[nodiscard]] int bits() const { return bits_; }
  [[nodiscard]] std::size_t comparator_count() const { return comparators_.size(); }
  /// Ladder taps as fractions of the live reference (the chain computes
  /// threshold k = fraction k · vref).
  [[nodiscard]] const std::vector<double>& threshold_fractions() const {
    return threshold_fractions_;
  }
  /// Write every comparator's fast-chain invariants (pipeline/fast_chain.hpp
  /// FlashField order) into a [field][comparator] view: field f of
  /// comparator k lands at `out[f * stride + k]`.
  void write_fast_fields(double* out, std::size_t stride) const;
  [[nodiscard]] double nominal_threshold(std::size_t k) const {
    return threshold_fractions_[k] * vref_nominal_;
  }

 private:
  int bits_;
  double vref_nominal_;
  /// Ladder tap positions as fractions of the reference.
  std::vector<double> threshold_fractions_;
  std::vector<adc::analog::Comparator> comparators_;
};

}  // namespace adc::pipeline
