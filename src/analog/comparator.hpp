/// \file comparator.hpp
/// Dynamic-latch comparator model for the ADSC and the back-end flash.
///
/// Pipeline redundancy (the half bit per 1.5-bit stage) makes the ADSC
/// comparators remarkably tolerant: any offset below V_REF/4 is digitally
/// corrected. The model therefore includes a generous random offset, per
/// decision input-referred noise, and a metastability window; the property
/// tests verify the redundancy claim by sweeping the offset to the edge.
#pragma once

#include <cmath>

#include "common/random.hpp"
#include "common/units.hpp"

namespace adc::analog {

using namespace adc::common::literals;

/// Statistical parameters of one comparator.
struct ComparatorSpec {
  double threshold = 0.0;        ///< nominal decision threshold [V]
  double sigma_offset = 10.0_mV;   ///< one-sigma random offset [V]
  double noise_rms = 0.5_mV;     ///< per-decision input noise [V rms]
  /// Half-width of the metastability window [V]: inputs within this window
  /// of the effective threshold resolve randomly.
  double metastable_window = 5.0_uV;

  bool operator==(const ComparatorSpec&) const = default;
};

/// One realized comparator (offset drawn at construction).
class Comparator {
 public:
  /// Draw the offset from `rng`; per-decision noise uses a child stream.
  Comparator(const ComparatorSpec& spec, adc::common::Rng& rng);

  /// Compare `v` against the effective threshold. Noisy and possibly
  /// metastable: not const because it consumes random draws.
  [[nodiscard]] bool decide(double v) { return decide_with_threshold(v, spec_.threshold); }

  /// Compare against an externally supplied threshold (plus this
  /// comparator's offset). Used when the threshold is derived from a
  /// reference that drifts sample to sample: threshold generation and DAC
  /// share the reference in silicon, so both must see the same value.
  /// Lives in the header: the pipeline makes ~20 decisions per sample and
  /// the body is a handful of flops around one noise draw.
  [[nodiscard]] bool decide_with_threshold(double v, double threshold) {
    const double noisy =
        v + (spec_.noise_rms > 0.0 ? noise_rng_.gaussian(spec_.noise_rms) : 0.0);
    const double margin = noisy - (threshold + offset_);
    if (std::abs(margin) < spec_.metastable_window) {
      // Unresolved regeneration: the latch falls to a random side.
      return noise_rng_.bernoulli(0.5);
    }
    return margin > 0.0;
  }

  /// Effective threshold including the drawn offset [V].
  [[nodiscard]] double effective_threshold() const { return spec_.threshold + offset_; }
  /// The drawn offset [V].
  [[nodiscard]] double offset() const { return offset_; }
  /// Per-decision input noise sigma [V rms] (fast stage-chain plan).
  [[nodiscard]] double noise_rms() const { return spec_.noise_rms; }
  /// Metastability half-window [V] (fast stage-chain plan).
  [[nodiscard]] double metastable_window() const { return spec_.metastable_window; }

  /// Force a specific offset (failure injection in tests).
  void set_offset(double offset) { offset_ = offset; }

 private:
  ComparatorSpec spec_;
  double offset_;
  adc::common::Rng noise_rng_;
};

}  // namespace adc::analog
