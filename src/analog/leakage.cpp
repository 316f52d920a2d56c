#include "analog/leakage.hpp"

#include "common/error.hpp"

namespace adc::analog {

HoldLeakage::HoldLeakage(const LeakageSpec& spec, adc::common::Rng& rng) : spec_(spec) {
  // One statement per draw, n side first: the draw order is part of the
  // exact profile's golden codes, so no compiler may pick it.
  scale_n_ = 1.0 + rng.gaussian(spec.sigma_mismatch);
  scale_p_ = 1.0 + rng.gaussian(spec.sigma_mismatch);
  adc::common::require(spec.i0 >= 0.0, "HoldLeakage: negative leakage");
}

}  // namespace adc::analog
