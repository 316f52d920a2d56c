/// \file sc_bias.hpp
/// The paper's switched-capacitor bias current generator (section 3, Fig. 3).
///
/// An OTA in unity gain forces node BIAS to V_BIAS (from the bandgap). The
/// load at that node is the equivalent resistance of a switched capacitor
/// C_B clocked at the conversion rate: R_eq = 1/(C_B * f_CR). The current
/// through the OTA's output device is therefore
///
///     I_BIAS = C_B * f_CR * V_BIAS                                  (eq. 1)
///
/// and is mirrored to the ten stages. Two properties follow, both central to
/// the paper:
///  * power scales linearly and automatically with conversion rate (Fig. 4);
///  * the current tracks the *absolute* value of on-chip capacitance, so the
///    opamps are never under- or over-biased across capacitor corners —
///    a fixed generator must be over-designed for the slow-cap corner
///    (ablation A4 quantifies this).
#pragma once

#include "analog/bandgap.hpp"
#include "analog/capacitor.hpp"
#include "bias/bias_source.hpp"
#include "common/random.hpp"
#include "common/units.hpp"

namespace adc::bias {

using namespace adc::common::literals;

/// Design parameters of the SC bias generator.
struct ScBiasSpec {
  /// The switched capacitor C_B (nominal value plus statistics).
  adc::analog::CapacitorSpec cb{12.0_pF, 0.002, 0.0};
  /// V_BIAS derived from the bandgap [V].
  double v_bias = 0.6;
  /// OTA loop gain (finite gain leaves a small systematic error on BIAS).
  double ota_gain = 2000.0;
  /// Residual relative ripple of the mirrored current (switching ripple
  /// after the mirror's filtering), one sigma per sample.
  double ripple_sigma = 0.002;
  /// Quiescent current of OTA + mirror overhead [A].
  double overhead_current = 150.0_uA;

  bool operator==(const ScBiasSpec&) const = default;
};

/// One realized SC bias generator.
class ScBiasGenerator final : public BiasSource {
 public:
  /// Draws C_B (local mismatch + global spread) and fixes the OTA error.
  ScBiasGenerator(const ScBiasSpec& spec, adc::common::Rng& rng);

  /// Master current per eq. (1): C_B * f_CR * V_BIAS, with the OTA's finite
  /// loop-gain correction.
  [[nodiscard]] double master_current(double f_cr) const override;

  [[nodiscard]] double overhead_current() const override { return spec_.overhead_current; }

  /// The realized C_B value [F].
  [[nodiscard]] double realized_cb() const { return cb_.value(); }

  /// Instantaneous current including switching ripple; consumes a random
  /// draw. The pipeline uses this per sample; the power model uses the mean.
  [[nodiscard]] double sampled_current(double f_cr, adc::common::Rng& rng) const;

  [[nodiscard]] const ScBiasSpec& spec() const { return spec_; }

 private:
  ScBiasSpec spec_;
  adc::analog::Capacitor cb_;
};

}  // namespace adc::bias
