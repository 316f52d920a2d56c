#include "bias/distribution.hpp"

#include "common/error.hpp"

namespace adc::bias {

MirrorBank::MirrorBank(const MirrorBankSpec& spec, adc::common::Rng& rng) {
  adc::common::require(!spec.ratios.empty(), "MirrorBank: no mirror legs");
  adc::common::require(spec.sigma_mismatch >= 0.0, "MirrorBank: negative mismatch");
  gains_.reserve(spec.ratios.size());
  for (std::size_t i = 0; i < spec.ratios.size(); ++i) {
    adc::common::require(spec.ratios[i] > 0.0, "MirrorBank: non-positive ratio");
    gains_.push_back(spec.ratios[i] * (1.0 + rng.gaussian(spec.sigma_mismatch)));
  }
}

double MirrorBank::total_current(double master_current) const {
  double total = 0.0;
  for (double g : gains_) total += g * master_current;
  return total;
}

}  // namespace adc::bias
