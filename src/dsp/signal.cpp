#include "dsp/signal.hpp"

#include <cmath>
#include <numbers>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace adc::dsp {

namespace {
constexpr double two_pi = 2.0 * std::numbers::pi;

/// One tone hoisted with value()/slope()'s association: (2π·f)·t + φ for
/// the argument and ((A·2π)·f)·cos for the slope.
ToneView hoist(double amplitude, double frequency_hz, double phase_rad) {
  return {two_pi * frequency_hz, phase_rad, amplitude, amplitude * two_pi * frequency_hz};
}
}  // namespace

SineSignal::SineSignal(double amplitude, double frequency_hz, double phase_rad,
                       double offset)
    : amplitude_(amplitude),
      frequency_(frequency_hz),
      phase_(phase_rad),
      offset_(offset),
      tone_(hoist(amplitude, frequency_hz, phase_rad)) {
  adc::common::require(frequency_hz >= 0.0, "SineSignal: negative frequency");
}

double SineSignal::value(double t) const {
  return offset_ + amplitude_ * std::sin(two_pi * frequency_ * t + phase_);
}

double SineSignal::slope(double t) const {
  return amplitude_ * two_pi * frequency_ * std::cos(two_pi * frequency_ * t + phase_);
}

void SineSignal::sample_fast(double t, double& value_out, double& slope_out) const {
  tone_lanes<1>(SineSignal::tone_table(), &t, &value_out, &slope_out);
}

ToneTable SineSignal::tone_table() const {
  return {&tone_.w, &tone_.phase, &tone_.amp, &tone_.slope_coef, 1, offset_, -0.0};
}

MultiToneSignal::MultiToneSignal(std::vector<Tone> tones) : tones_(std::move(tones)) {
  adc::common::require(!tones_.empty(), "MultiToneSignal: no tones");
  const std::size_t n = tones_.size();
  rows_.assign(4 * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const ToneView v = hoist(tones_[i].amplitude, tones_[i].frequency_hz, tones_[i].phase_rad);
    rows_[i] = v.w;
    rows_[n + i] = v.phase;
    rows_[2 * n + i] = v.amp;
    rows_[3 * n + i] = v.slope_coef;
  }
}

double MultiToneSignal::value(double t) const {
  double v = 0.0;
  for (const auto& tone : tones_) {
    v += tone.amplitude * std::sin(two_pi * tone.frequency_hz * t + tone.phase_rad);
  }
  return v;
}

double MultiToneSignal::slope(double t) const {
  double v = 0.0;
  for (const auto& tone : tones_) {
    v += tone.amplitude * two_pi * tone.frequency_hz *
         std::cos(two_pi * tone.frequency_hz * t + tone.phase_rad);
  }
  return v;
}

void MultiToneSignal::sample_fast(double t, double& value_out, double& slope_out) const {
  tone_lanes<1>(MultiToneSignal::tone_table(), &t, &value_out, &slope_out);
}

ToneTable MultiToneSignal::tone_table() const {
  const std::size_t n = tones_.size();
  const double* r = rows_.data();
  return {r, r + n, r + 2 * n, r + 3 * n, n, 0.0, 0.0};
}

RampSignal::RampSignal(double start, double stop, double duration_s)
    : start_(start), stop_(stop), duration_(duration_s) {
  adc::common::require(duration_s > 0.0, "RampSignal: non-positive duration");
}

double RampSignal::value(double t) const {
  if (t <= 0.0) return start_;
  if (t >= duration_) return stop_;
  return start_ + (stop_ - start_) * (t / duration_);
}

double RampSignal::slope(double t) const {
  if (t <= 0.0 || t >= duration_) return 0.0;
  return (stop_ - start_) / duration_;
}

CoherentTone coherent_frequency(double target_hz, double fs, std::size_t n) {
  adc::common::require(n >= 4, "coherent_frequency: record too short");
  adc::common::require(target_hz > 0.0 && target_hz < fs / 2.0,
                       "coherent_frequency: target outside (0, fs/2)");
  const double bin = fs / static_cast<double>(n);
  auto m = static_cast<std::size_t>(std::llround(target_hz / bin));
  if (m < 1) m = 1;
  if (m % 2 == 0) {
    // Prefer the odd neighbour closest to the target.
    const double lo_err = std::abs(static_cast<double>(m - 1) * bin - target_hz);
    const double hi_err = std::abs(static_cast<double>(m + 1) * bin - target_hz);
    m = (m + 1 < n / 2 && hi_err <= lo_err) ? m + 1 : m - 1;
    if (m < 1) m = 1;
  }
  if (m >= n / 2) m = n / 2 - 1;
  ADC_ENSURE(m >= 1 && m < n / 2, "coherent_frequency: bin escaped (0, n/2)");
  return {static_cast<double>(m) * bin, m};
}

}  // namespace adc::dsp
