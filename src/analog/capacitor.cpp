#include "analog/capacitor.hpp"

#include "common/error.hpp"

namespace adc::analog {

Capacitor::Capacitor(const CapacitorSpec& spec, adc::common::Rng& rng)
    : value_(0.0), nominal_(spec.nominal_farad) {
  adc::common::require(spec.nominal_farad > 0.0, "Capacitor: non-positive nominal value");
  adc::common::require(spec.sigma_mismatch >= 0.0 && spec.sigma_mismatch < 0.5,
                       "Capacitor: unreasonable mismatch sigma");
  const double local = rng.gaussian(spec.sigma_mismatch);
  value_ = spec.nominal_farad * (1.0 + spec.global_spread) * (1.0 + local);
  adc::common::require(value_ > 0.0, "Capacitor: realized value collapsed to <= 0");
}

}  // namespace adc::analog
