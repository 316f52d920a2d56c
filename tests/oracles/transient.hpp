/// \file transient.hpp
/// Test oracle: a numerical transient engine for cross-validating the
/// closed-form circuit models. Only test_transient links it.
///
/// The stage model uses closed-form settling (exponential + slew regions).
/// This module solves the same amplification-phase circuit — a single-pole
/// opamp macromodel in capacitive feedback with a tanh-limited input pair —
/// as an ODE with a fixed-step RK4 integrator. The unit tests require the
/// closed form and the numerical solution to agree over the whole operating
/// envelope; disagreement means one of the models drifted.
#pragma once

#include <functional>
#include <vector>

#include "analog/opamp.hpp"

namespace adc::analog {

/// Fixed-step 4th-order Runge-Kutta for dy/dt = f(t, y), scalar state.
/// Returns the state at t0 + steps*dt.
[[nodiscard]] double integrate_rk4(const std::function<double(double, double)>& f, double y0,
                                   double t0, double dt, int steps);

/// Sampled trajectory of the same integration (steps+1 points incl. y0).
[[nodiscard]] std::vector<double> integrate_rk4_trajectory(
    const std::function<double(double, double)>& f, double y0, double t0, double dt,
    int steps);

/// Transient model of one MDAC amplification phase.
///
/// State: the differential output voltage v_out. Dynamics of the
/// single-pole feedback amplifier with a slew-limited front end:
///
///   dv_out/dt = SR * tanh( (v_target - v_out) / v_lin )
///
/// where v_lin = SR * tau is the linear range of the input pair: for small
/// errors this reduces to (v_target - v_out)/tau (exponential settling), for
/// large errors to +/-SR (slewing) — the same physics the closed form
/// splits into two regions, but without the region boundary.
class MdacTransient {
 public:
  /// `params` at tail bias `ibias`, closed-loop feedback factor `beta`.
  MdacTransient(const OpampParams& params, double beta, double ibias);

  /// Final value the loop settles towards (includes finite DC gain).
  [[nodiscard]] double final_value(double target) const;

  /// Integrate the amplification phase for `t_settle` seconds from a reset
  /// output (v_out = 0), with `steps_per_tau` RK4 steps per time constant.
  [[nodiscard]] double settle(double target, double t_settle, int steps_per_tau = 64) const;

  /// Output trajectory for plotting/inspection.
  [[nodiscard]] std::vector<double> trajectory(double target, double t_settle,
                                               int steps) const;

  [[nodiscard]] double tau() const { return tau_; }
  [[nodiscard]] double slew_rate() const { return slew_; }

 private:
  [[nodiscard]] std::function<double(double, double)> dynamics(double target) const;

  OpampParams params_;
  double beta_;
  double tau_;
  double slew_;
};

}  // namespace adc::analog
