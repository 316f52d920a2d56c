/// \file signal.hpp
/// Continuous-time test signals applied to the converter's analog input.
///
/// The behavioral front-end needs both the instantaneous value and the time
/// derivative of the source (the derivative drives the signal-dependent
/// tracking error of the un-bootstrapped input switches, the mechanism behind
/// the paper's Fig. 6 SFDR roll-off). Signals therefore expose `value(t)` and
/// `slope(t)` analytically.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "dsp/tone_lanes.hpp"

namespace adc::dsp {

/// A differential continuous-time signal v(t) in volts. For a converter with
/// full scale 2 V_P-P differential, a full-scale sine has amplitude 1.0.
class Signal {
 public:
  virtual ~Signal() = default;
  /// Instantaneous differential value [V] at time t [s].
  [[nodiscard]] virtual double value(double t) const = 0;
  /// Instantaneous time derivative [V/s] at time t [s].
  [[nodiscard]] virtual double slope(double t) const = 0;

  /// `fast`-profile evaluation: value and slope together. Tone sources run
  /// tone_lanes (dsp/tone_lanes.hpp) at one lane; the default falls back to
  /// the exact pair, so purely algebraic sources need no override.
  virtual void sample_fast(double t, double& value_out, double& slope_out) const {
    value_out = value(t);
    slope_out = slope(t);
  }

  /// The source as a tone table, for evaluation at many lanes at once
  /// (the batch engine). Empty (`count == 0`) for sources that are not
  /// tones; valid while the signal lives.
  [[nodiscard]] virtual ToneTable tone_table() const { return {}; }
};

/// Pure sine: offset + amplitude * sin(2*pi*f*t + phase).
class SineSignal final : public Signal {
 public:
  SineSignal(double amplitude, double frequency_hz, double phase_rad = 0.0,
             double offset = 0.0);

  [[nodiscard]] double value(double t) const override;
  [[nodiscard]] double slope(double t) const override;
  void sample_fast(double t, double& value_out, double& slope_out) const override;
  [[nodiscard]] ToneTable tone_table() const override;

  [[nodiscard]] double amplitude() const { return amplitude_; }
  [[nodiscard]] double frequency() const { return frequency_; }
  [[nodiscard]] double phase() const { return phase_; }
  [[nodiscard]] double offset() const { return offset_; }

 private:
  double amplitude_;
  double frequency_;
  double phase_;
  double offset_;
  ToneView tone_;
};

/// Sum of sines; used for two-tone intermodulation tests.
class MultiToneSignal final : public Signal {
 public:
  struct Tone {
    double amplitude = 0.0;
    double frequency_hz = 0.0;
    double phase_rad = 0.0;
  };
  explicit MultiToneSignal(std::vector<Tone> tones);

  [[nodiscard]] double value(double t) const override;
  [[nodiscard]] double slope(double t) const override;
  void sample_fast(double t, double& value_out, double& slope_out) const override;
  [[nodiscard]] ToneTable tone_table() const override;

  [[nodiscard]] const std::vector<Tone>& tones() const { return tones_; }

 private:
  std::vector<Tone> tones_;
  /// tones_, hoisted for tone_lanes: the ToneView fields as four rows of
  /// tones_.size() values each (w, phase, amp, slope_coef).
  std::vector<double> rows_;
};

/// Slow linear ramp from `start` to `stop` over `duration`; used for fast
/// static-transfer extraction. Values saturate outside [0, duration].
class RampSignal final : public Signal {
 public:
  RampSignal(double start, double stop, double duration_s);

  [[nodiscard]] double value(double t) const override;
  [[nodiscard]] double slope(double t) const override;

 private:
  double start_;
  double stop_;
  double duration_;
};

/// Constant DC level (slope 0); used for code-boundary probing.
class DcSignal final : public Signal {
 public:
  explicit DcSignal(double level) : level_(level) {}
  [[nodiscard]] double value(double) const override { return level_; }
  [[nodiscard]] double slope(double) const override { return 0.0; }

 private:
  double level_;
};

/// Result of coherent-frequency selection.
struct CoherentTone {
  double frequency_hz = 0.0;  ///< exact coherent tone frequency
  std::size_t cycles = 0;     ///< integer number of cycles in the record
};

/// Choose the coherent tone closest to `target_hz` for a record of `n`
/// samples at rate `fs`: f = M*fs/n with M odd (hence coprime with the
/// power-of-two n), so every code is exercised and bins never smear.
/// Requires 0 < target < fs/2 and n >= 4.
[[nodiscard]] CoherentTone coherent_frequency(double target_hz, double fs, std::size_t n);

}  // namespace adc::dsp
