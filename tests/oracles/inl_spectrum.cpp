#include "oracles/inl_spectrum.hpp"

#include <cmath>
#include <numbers>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "dsp/fft.hpp"

namespace adc::dsp {

InlSpectrumResult predict_harmonics_from_inl(std::span<const double> inl_lsb, int bits,
                                             double amplitude_fraction, int max_harmonic) {
  adc::common::require(bits >= 2 && bits <= 20, "predict_harmonics_from_inl: bad resolution");
  const auto ncodes = static_cast<std::size_t>(1) << bits;
  adc::common::require(inl_lsb.size() == ncodes,
                       "predict_harmonics_from_inl: INL must have one entry per code");
  adc::common::require(amplitude_fraction > 0.0 && amplitude_fraction <= 1.05,
                       "predict_harmonics_from_inl: amplitude outside (0, 1.05]");
  adc::common::require(max_harmonic >= 2 && max_harmonic <= 100,
                       "predict_harmonics_from_inl: bad harmonic bound");

  // Drive one exact sine period through the static error curve. 2^14 phase
  // points put the sampling images far above max_harmonic.
  const std::size_t n = 1 << 14;
  const double mid = (static_cast<double>(ncodes) - 1.0) / 2.0;
  std::vector<double> error(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double theta =
        2.0 * std::numbers::pi * static_cast<double>(i) / static_cast<double>(n);
    const double v = amplitude_fraction * std::sin(theta);  // in full-scale halves
    // Map to the code axis and linearly interpolate the INL curve.
    double code = (v + 1.0) / 2.0 * static_cast<double>(ncodes) - 0.5;
    code = adc::common::clamp(code, 0.0, static_cast<double>(ncodes) - 1.0);
    const auto k0 = static_cast<std::size_t>(code);
    const auto k1 = std::min(k0 + 1, ncodes - 1);
    const double frac = code - static_cast<double>(k0);
    error[i] = (1.0 - frac) * inl_lsb[k0] + frac * inl_lsb[k1];
    (void)mid;
  }

  const auto ps = power_spectrum(error);

  InlSpectrumResult r;
  r.harmonic_dbc.assign(static_cast<std::size_t>(max_harmonic) + 1, -300.0);
  // Signal amplitude on the code axis: amplitude_fraction * 2^(bits-1) LSB.
  const double signal_power =
      std::pow(amplitude_fraction * std::ldexp(1.0, bits - 1), 2.0) / 2.0;
  double thd_power = 0.0;
  r.worst_dbc = -300.0;
  for (int h = 2; h <= max_harmonic; ++h) {
    const double p = ps[static_cast<std::size_t>(h)];
    const double dbc =
        adc::common::db_from_power_ratio(std::max(p, 1e-30) / signal_power);
    r.harmonic_dbc[static_cast<std::size_t>(h)] = dbc;
    thd_power += p;
    if (dbc > r.worst_dbc) {
      r.worst_dbc = dbc;
      r.worst_order = h;
    }
  }
  r.thd_db =
      adc::common::db_from_power_ratio(std::max(thd_power, 1e-30) / signal_power);
  return r;
}

}  // namespace adc::dsp
