/// \file clock.hpp
/// Sampling-clock model with aperture jitter.
///
/// The paper clocks the ADC from a filtered RF source; what the converter
/// sees is a sampling instant with gaussian aperture uncertainty. Above
/// ~100 MHz input the paper's SNR becomes jitter-limited (Fig. 6); the
/// calibrated sigma reproduces that corner.
#pragma once

#include <vector>

#include "common/random.hpp"
#include "common/units.hpp"

namespace adc::clocking {

using namespace adc::common::literals;

/// Clock source parameters.
struct ClockSpec {
  double frequency_hz = 110.0_MHz;  ///< conversion rate f_CR
  double jitter_rms_s = 0.45_ps;  ///< white aperture jitter, one sigma [s]
  /// Random-walk (accumulated) jitter step per sample [s]: models the
  /// close-in phase noise of a free-running source. Unlike white jitter,
  /// the error accumulates, so its energy concentrates in skirts around the
  /// carrier instead of a flat floor. 0 disables (a clean bench source).
  double random_walk_rms_s = 0.0;

  bool operator==(const ClockSpec&) const = default;
};

/// Generates jittered sampling instants.
class SamplingClock {
 public:
  SamplingClock(const ClockSpec& spec, adc::common::Rng& rng);

  /// Nominal period [s].
  [[nodiscard]] double period() const { return 1.0 / spec_.frequency_hz; }
  [[nodiscard]] double frequency() const { return spec_.frequency_hz; }
  [[nodiscard]] double jitter_rms() const { return spec_.jitter_rms_s; }
  [[nodiscard]] double random_walk_rms() const { return spec_.random_walk_rms_s; }

  /// The jittered sampling instant of sample `n`: n*T + white + walk. The
  /// random-walk component accumulates one step per call, so instants must
  /// be requested in forward sample order (as every capture loop does).
  [[nodiscard]] double sample_instant(std::size_t n);

  /// Reset the accumulated random-walk phase (a new capture after re-locking
  /// the source).
  void reset_walk() { walk_s_ = 0.0; }

  /// Generate `count` consecutive jittered instants starting at sample 0.
  [[nodiscard]] std::vector<double> instants(std::size_t count);

 private:
  ClockSpec spec_;
  adc::common::Rng rng_;
  double walk_s_ = 0.0;
};

}  // namespace adc::clocking
