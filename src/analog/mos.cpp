#include "analog/mos.hpp"

#include <cmath>

#include "common/constants.hpp"
#include "common/error.hpp"

namespace adc::analog {

namespace p018 = adc::common::process_018um;

MosParams MosParams::nmos_018(double w_over_l) {
  MosParams m;
  m.type = MosType::kNmos;
  m.w_over_l = w_over_l;
  m.kp = p018::kp_nmos;
  m.vth0 = p018::vth_nmos;
  m.gamma = p018::body_gamma;
  m.two_phi_f = p018::body_2phif;
  m.theta = p018::mobility_theta;
  return m;
}

MosParams MosParams::pmos_018(double w_over_l) {
  MosParams m;
  m.type = MosType::kPmos;
  m.w_over_l = w_over_l;
  m.kp = p018::kp_pmos;
  m.vth0 = p018::vth_pmos;
  m.gamma = p018::body_gamma;
  m.two_phi_f = p018::body_2phif;
  m.theta = p018::mobility_theta;
  return m;
}

Mos::Mos(const MosParams& params)
    : params_(params), sqrt_two_phi_f_(std::sqrt(params.two_phi_f)) {
  adc::common::require(params.w_over_l > 0.0, "Mos: W/L must be positive");
  adc::common::require(params.kp > 0.0, "Mos: kp must be positive");
}

double Mos::vth(double vsb) const {
  if (vsb < 0.0) vsb = 0.0;
  return params_.vth0 +
         params_.gamma * (std::sqrt(params_.two_phi_f + vsb) - sqrt_two_phi_f_);
}

double Mos::g_on(double vov) const {
  // Subthreshold softening: conductance tails off smoothly over ~2-3 kT/q
  // instead of kinking at vov = 0 (softplus with a 50 mV scale). The smooth
  // turn-off keeps the distortion of an underdriven transmission gate in the
  // low-order harmonics where it belongs.
  constexpr double s = 0.05;  // [V]
  // The fast profile reads the Chebyshev surrogates fitted over this
  // expression (switches.cpp); here libm is the exact contract.
  const double vov_eff =
      vov > 8.0 * s ? vov : s * std::log1p(std::exp(vov / s));  // lint-ok: see above
  if (vov_eff <= 0.0) return 0.0;
  return params_.kp * params_.w_over_l * vov_eff / (1.0 + params_.theta * vov_eff);
}

}  // namespace adc::analog
