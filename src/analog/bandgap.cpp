#include "analog/bandgap.hpp"

#include "common/error.hpp"

namespace adc::analog {

Bandgap::Bandgap(const BandgapSpec& spec, adc::common::Rng& rng)
    : Bandgap(spec, 1.0 + rng.gaussian(spec.sigma_process)) {}

Bandgap::Bandgap(const BandgapSpec& spec, double process_factor)
    : spec_(spec), process_factor_(process_factor) {
  adc::common::require(spec.nominal_output > 0.0, "Bandgap: non-positive output");
  adc::common::require(spec.vdd_nominal > 0.0, "Bandgap: non-positive nominal VDD");
}

double Bandgap::output(double t_kelvin, double vdd) const {
  const double dt = t_kelvin - spec_.t0_kelvin;
  return spec_.nominal_output * process_factor_ + spec_.curvature * dt * dt +
         spec_.supply_sensitivity * (vdd - spec_.vdd_nominal);
}

}  // namespace adc::analog
