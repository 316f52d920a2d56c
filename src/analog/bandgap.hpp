/// \file bandgap.hpp
/// Bandgap voltage reference model.
///
/// The paper derives the reference voltages and V_BIAS of the SC bias
/// generator from an on-chip bandgap. The model provides the classic
/// first-order-compensated bandgap output with residual curvature over
/// temperature, supply sensitivity, and a process-spread draw — the
/// properties that make eq. (1)'s bias current "near independent of
/// variations in process parameters, temperature and supply voltage".
#pragma once

#include "common/random.hpp"

namespace adc::analog {

/// Bandgap design parameters.
struct BandgapSpec {
  double nominal_output = 1.20;     ///< trimmed output at T0 [V]
  double t0_kelvin = 300.0;         ///< reference temperature
  /// Residual second-order curvature [V/K^2] of a first-order-compensated
  /// bandgap (typical few tens of uV over -40..125C).
  double curvature = -4e-9;
  double supply_sensitivity = 0.002; ///< dVout/dVdd [V/V]
  double vdd_nominal = 1.8;
  double sigma_process = 0.005;      ///< one-sigma relative spread (untrimmed)

  bool operator==(const BandgapSpec&) const = default;
};

/// One realized bandgap reference.
class Bandgap {
 public:
  Bandgap(const BandgapSpec& spec, adc::common::Rng& rng);

  /// Output voltage [V] at junction temperature `t_kelvin` and supply `vdd`.
  [[nodiscard]] double output(double t_kelvin, double vdd) const;

  [[nodiscard]] const BandgapSpec& spec() const { return spec_; }

 private:
  Bandgap(const BandgapSpec& spec, double process_factor);
  BandgapSpec spec_;
  double process_factor_;
};

}  // namespace adc::analog
