#include "bias/sc_bias.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "common/error.hpp"

namespace adc::bias {

ScBiasGenerator::ScBiasGenerator(const ScBiasSpec& spec, adc::common::Rng& rng)
    : spec_(spec), cb_(spec.cb, rng) {
  adc::common::require(spec.v_bias > 0.0, "ScBiasGenerator: non-positive V_BIAS");
  adc::common::require(spec.ota_gain > 1.0, "ScBiasGenerator: OTA gain must exceed unity");
  adc::common::require(spec.ripple_sigma >= 0.0, "ScBiasGenerator: negative ripple");
}

double ScBiasGenerator::master_current(double f_cr) const {
  adc::common::require(f_cr >= 0.0, "ScBiasGenerator: negative conversion rate");
  // Unity-gain OTA forces BIAS to V_BIAS within its loop gain:
  // V_eff = V_BIAS * A/(1+A).
  const double v_eff = spec_.v_bias * spec_.ota_gain / (1.0 + spec_.ota_gain);
  const double i_bias = cb_.value() * f_cr * v_eff;
  ADC_ENSURE(std::isfinite(i_bias) && i_bias >= 0.0,
             "ScBiasGenerator::master_current: bad I_BIAS");
  return i_bias;
}

}  // namespace adc::bias
