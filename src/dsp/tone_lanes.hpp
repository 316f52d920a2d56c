/// \file tone_lanes.hpp
/// Sine and multi-tone stimuli for W sampling instants at once: the one
/// fast-profile evaluation of a tone source. SineSignal/MultiToneSignal::
/// sample_fast run it at W = 1, on the ToneTable the signal builds at
/// construction; the batch kernel runs it at W ∈ {8, 16, 32}, on a table
/// whose lanes hold each die's own tone, so dies converting at different
/// rates each get their own coherent frequency. Plain data and
/// ADC_ALWAYS_INLINE only (common/always_inline.hpp).
#pragma once

#include <cstddef>

#include "common/fastmath.hpp"

namespace adc::dsp {

/// One tone, hoisted with the association the exact-profile signals use:
/// argument w·t + phase with w = 2π·f, value amp·sin, slope
/// slope_coef·cos with slope_coef = (amp·2π)·f.
struct ToneView {
  double w = 0.0;
  double phase = 0.0;
  double amp = 0.0;
  double slope_coef = 0.0;
};

/// A stimulus as a sum of tones over a DC offset, for W lanes. Each
/// ToneView field is its own array laid out `[tone][lane]`: tone i of lane
/// l at `field[i * W + l]`, so at W = 1 one row per field. `count` is 0 for
/// sources that are not tones.
struct ToneTable {
  const double* w = nullptr;           ///< [count][W]
  const double* phase = nullptr;       ///< [count][W]
  const double* amp = nullptr;         ///< [count][W]
  const double* slope_coef = nullptr;  ///< [count][W]
  std::size_t count = 0;
  double offset = 0.0;  ///< DC offset the value sum starts from
  /// What the slope sum starts from. A lone sine's slope is its one product,
  /// so it starts from -0.0, the exact additive identity; a MultiToneSignal
  /// sums from +0.0 like its exact-profile slope().
  double slope_start = 0.0;
};

/// Value and slope of the stimulus at the W instants `t`.
template <std::size_t W>
ADC_ALWAYS_INLINE inline void tone_lanes(const ToneTable& table, const double* t, double* v,
                                         double* dv) {
  for (std::size_t l = 0; l < W; ++l) {
    v[l] = table.offset;
    dv[l] = table.slope_start;
  }
  for (std::size_t i = 0; i < table.count; ++i) {
    const double* w = table.w + i * W;
    const double* phase = table.phase + i * W;
    const double* amp = table.amp + i * W;
    const double* slope_coef = table.slope_coef + i * W;
    for (std::size_t l = 0; l < W; ++l) {
      double s = 0.0;
      double c = 0.0;
      adc::common::fastmath::sincos_fast(w[l] * t[l] + phase[l], s, c);
      v[l] += amp[l] * s;
      dv[l] += slope_coef[l] * c;
    }
  }
}

}  // namespace adc::dsp
