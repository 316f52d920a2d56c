#include "oracles/transient.hpp"

#include <cmath>

#include "common/error.hpp"

namespace adc::analog {

double integrate_rk4(const std::function<double(double, double)>& f, double y0, double t0,
                     double dt, int steps) {
  adc::common::require(dt > 0.0, "integrate_rk4: non-positive step");
  adc::common::require(steps >= 1, "integrate_rk4: need at least one step");
  double y = y0;
  double t = t0;
  for (int i = 0; i < steps; ++i) {
    const double k1 = f(t, y);
    const double k2 = f(t + dt / 2.0, y + dt / 2.0 * k1);
    const double k3 = f(t + dt / 2.0, y + dt / 2.0 * k2);
    const double k4 = f(t + dt, y + dt * k3);
    y += dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
    t += dt;
  }
  return y;
}

std::vector<double> integrate_rk4_trajectory(const std::function<double(double, double)>& f,
                                             double y0, double t0, double dt, int steps) {
  std::vector<double> traj;
  traj.reserve(static_cast<std::size_t>(steps) + 1);
  traj.push_back(y0);
  double y = y0;
  for (int i = 0; i < steps; ++i) {
    y = integrate_rk4(f, y, t0 + i * dt, dt, 1);
    traj.push_back(y);
  }
  return traj;
}

MdacTransient::MdacTransient(const OpampParams& params, double beta, double ibias)
    : params_(params), beta_(beta) {
  adc::common::require(beta > 0.0 && beta <= 1.0, "MdacTransient: beta outside (0, 1]");
  const Opamp amp(params);
  tau_ = amp.time_constant(beta, ibias);
  slew_ = amp.slew_at_bias(ibias);
  adc::common::require(slew_ > 0.0, "MdacTransient: zero slew (no bias?)");
}

double MdacTransient::final_value(double target) const {
  return target / (1.0 + 1.0 / (params_.dc_gain * beta_));
}

std::function<double(double, double)> MdacTransient::dynamics(double target) const {
  const double v_final = final_value(target);
  const double v_lin = slew_ * tau_;
  const double sr = slew_;
  return [v_final, v_lin, sr](double /*t*/, double v_out) {
    return sr * std::tanh((v_final - v_out) / v_lin);
  };
}

double MdacTransient::settle(double target, double t_settle, int steps_per_tau) const {
  adc::common::require(t_settle > 0.0, "MdacTransient: non-positive settle time");
  adc::common::require(steps_per_tau >= 4, "MdacTransient: too few steps per tau");
  const auto steps =
      std::max(16, static_cast<int>(std::ceil(t_settle / tau_ * steps_per_tau)));
  double out = integrate_rk4(dynamics(target), 0.0, 0.0, t_settle / steps, steps);
  // The output stage clips at the swing limit, as in the closed form.
  if (out > params_.output_swing) out = params_.output_swing;
  if (out < -params_.output_swing) out = -params_.output_swing;
  return out;
}

std::vector<double> MdacTransient::trajectory(double target, double t_settle,
                                              int steps) const {
  adc::common::require(steps >= 1, "MdacTransient: need at least one step");
  return integrate_rk4_trajectory(dynamics(target), 0.0, 0.0, t_settle / steps, steps);
}

}  // namespace adc::analog
