#include "analog/leakage.hpp"

#include "common/error.hpp"

namespace adc::analog {

HoldLeakage::HoldLeakage(const LeakageSpec& spec, adc::common::Rng& rng)
    : HoldLeakage(spec, 1.0 + rng.gaussian(spec.sigma_mismatch),
                  1.0 + rng.gaussian(spec.sigma_mismatch)) {}

HoldLeakage::HoldLeakage(const LeakageSpec& spec, double mis_p, double mis_n)
    : spec_(spec), scale_p_(mis_p), scale_n_(mis_n) {
  adc::common::require(spec.i0 >= 0.0, "HoldLeakage: negative leakage");
}

}  // namespace adc::analog
