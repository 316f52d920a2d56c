#include "clocking/clock.hpp"

#include "common/error.hpp"

namespace adc::clocking {

SamplingClock::SamplingClock(const ClockSpec& spec, adc::common::Rng& rng)
    : spec_(spec), rng_(rng.child("sampling-clock")) {
  adc::common::require(spec.frequency_hz > 0.0, "SamplingClock: non-positive frequency");
  adc::common::require(spec.jitter_rms_s >= 0.0, "SamplingClock: negative jitter");
  adc::common::require(spec.random_walk_rms_s >= 0.0,
                       "SamplingClock: negative random-walk jitter");
}

double SamplingClock::sample_instant(std::size_t n) {
  const double nominal = static_cast<double>(n) * period();
  double t = nominal;
  if (spec_.jitter_rms_s > 0.0) t += rng_.gaussian(spec_.jitter_rms_s);
  if (spec_.random_walk_rms_s > 0.0) {
    walk_s_ += rng_.gaussian(spec_.random_walk_rms_s);
    t += walk_s_;
  }
  return t;
}

}  // namespace adc::clocking
