/// \file switches.hpp
/// Behavioral sampling-switch models.
///
/// The paper's key switch decisions (section 3):
///  * S1/S2 are transmission gates with **bulk switching** of the PMOS: when
///    the switch is on, the PMOS N-well is tied to the source, removing the
///    body effect and lowering |Vth|, hence lower on-resistance without
///    bootstrapping;
///  * S1B (the summing-node sampling switch) sits at VCM and is NMOS-only;
///  * bootstrapping was *rejected* for lifetime reasons — its model is here
///    for the ablation bench that quantifies what that decision cost.
///
/// The signal-dependent on-resistance and junction capacitance of the input
/// switch give a tracking error e = tau(v)*dv/dt whose even-order terms
/// cancel differentially; the surviving odd-order terms grow linearly with
/// input frequency and are the mechanism behind Fig. 6's SFDR roll-off.
///
/// Under the `fast` profile both terms are Chebyshev surrogates in v²
/// (prepare_fast), handed out as a SamplerView to the one fast front end,
/// which calls back here only for inputs outside the fitted span.
#pragma once

#include "analog/mos.hpp"
#include "analog/sampler_view.hpp"
#include "common/fidelity.hpp"
#include "common/math_util.hpp"
#include "common/units.hpp"

namespace adc::analog {

using namespace adc::common::literals;

/// Switch topology.
enum class SwitchType {
  kNmosOnly,         ///< single NMOS (paper's S1B at VCM)
  kTransmissionGate, ///< NMOS + PMOS, PMOS bulk at VDD (conventional)
  kBulkSwitchedTg,   ///< NMOS + PMOS, PMOS bulk tied to source when on (paper)
  kBootstrapped,     ///< constant-Vgs NMOS (paper's rejected alternative)
};

/// Geometry/parasitics of one switch.
struct SwitchConfig {
  SwitchType type = SwitchType::kBulkSwitchedTg;
  double w_over_l_nmos = 150.0;
  double w_over_l_pmos = 300.0;  ///< paper: "especially the PMOS becomes large"
  double vdd = 1.8;
  /// Zero-bias junction capacitance at the signal node [F].
  double cj0 = 40.0_fF;
  /// Junction built-in potential [V] and grading coefficient.
  double cj_phi = 0.8;
  double cj_m = 0.4;
  /// Gate-channel capacitance per unit W/L [F]: C_ch = w_over_l * this
  /// (L^2 * Cox; 0.18um with Cox ~ 8.5 fF/um^2 gives ~0.275 fF).
  double channel_cap_per_wl = 0.275_fF;
  /// Residual fraction of the channel charge that lands on the sampled
  /// charge when the switch opens. Bottom-plate sampling (the paper's S1B
  /// opens first) cancels almost all of the input switch's injection; what
  /// remains couples through overlap/junction parasitics — order 1 %.
  /// 0 disables the charge-injection model.
  double injection_fraction = 0.01;
  /// Subthreshold softening of the channel-charge turn-off [V]: the
  /// overdrive in the charge expression goes through softplus with this
  /// scale, so the charge tails off smoothly instead of kinking.
  double injection_softening = 0.1;

  bool operator==(const SwitchConfig&) const = default;
};

/// Evaluates on-conductance and parasitics versus the instantaneous
/// single-ended node voltage.
class SwitchModel {
 public:
  explicit SwitchModel(const SwitchConfig& config);

  /// On-conductance [S] at single-ended node voltage `u` (0..VDD).
  [[nodiscard]] double g_on(double u) const;

  /// On-resistance [Ohm]; returns a large finite value when both devices are
  /// effectively off (mid-rail dead zone of an underdriven TG).
  [[nodiscard]] double r_on(double u) const;

  /// Signal-dependent junction capacitance [F] at node voltage `u`.
  [[nodiscard]] double c_junction(double u) const;

  /// Net signed channel charge [C] released when the switch opens at node
  /// voltage `u`: electrons from the NMOS (negative) plus holes from the
  /// PMOS (positive). The body-effect curvature of Vth(u) makes this a
  /// smooth nonlinear function of the input — the *static* distortion of an
  /// un-bootstrapped switch (frequency-independent, unlike the tracking
  /// error).
  [[nodiscard]] double channel_charge(double u) const;

  /// Tracking time constant [s] with total sampled load `c_load` [F]:
  /// tau(u) = Ron(u) * (c_load + Cj(u)).
  [[nodiscard]] double time_constant(double u, double c_load) const;

  /// `fast`-profile variants: identical expressions with the junction `pow`
  /// and the softplus `log1p(exp)` routed through the polynomial kernels of
  /// common/fastmath.hpp.
  [[nodiscard]] double c_junction_fast(double u) const;
  [[nodiscard]] double channel_charge_fast(double u) const;
  [[nodiscard]] double time_constant_fast(double u, double c_load) const;

  [[nodiscard]] const SwitchConfig& config() const { return config_; }

 private:
  template <adc::common::FidelityProfile P>
  double c_junction_impl(double u) const;
  template <adc::common::FidelityProfile P>
  double channel_charge_impl(double u) const;

  SwitchConfig config_;
  Mos nmos_;
  Mos pmos_;
  /// Hoisted zero-vsb thresholds. The bulk-switched TG (paper topology)
  /// always sees vsb = 0 on the PMOS and the bootstrapped switch always
  /// evaluates the NMOS at vsb = 0, so these are loop invariants of the
  /// per-sample tracking path.
  double nmos_vth0_;
  double pmos_vth0_;
};

/// Differential sampling front-end built from two matched switches, one per
/// side, around a common-mode voltage. Computes the first-order tracking
/// error of a differential input.
class DifferentialSampler {
 public:
  /// `common_mode` is the single-ended CM voltage [V]; `c_load` the per-side
  /// sampled capacitance [F].
  DifferentialSampler(const SwitchConfig& config, double common_mode, double c_load);

  /// First-order tracking error [V] added to a differential sample:
  /// e = -(tau_p(u_p) + tau_n(u_n))/2 * dv/dt, evaluated at the sampling
  /// instant. `v_diff` is the differential input [V] and `dvdt` its slope
  /// [V/s]. Even-order resistance terms cancel; odd-order terms survive.
  [[nodiscard]] double tracking_error(double v_diff, double dvdt) const;

  /// Average of the two per-side time constants [s] at differential input v.
  [[nodiscard]] double average_time_constant(double v_diff) const;

  /// Differential charge-injection error [V] added to a sample held at
  /// differential value `v_diff`: the common part cancels; the odd
  /// signal-dependent part survives as smooth low-order distortion.
  [[nodiscard]] double charge_injection_error(double v_diff) const;

  /// Build the `fast` profile's construction-time surrogates covering
  /// |v_diff| <= v_max (trimmed to the supply-clamp-free span where the
  /// curves are smooth). Both error terms have exact parity — swapping
  /// v_diff -> -v_diff swaps the two sides, so the average time constant is
  /// even and the differential injection odd — so the fits run in z = v^2,
  /// halving the polynomial degree for the same accuracy.
  void prepare_fast(double v_max);

  [[nodiscard]] const SwitchModel& switch_model() const { return switch_; }

  /// The `fast` error terms as a plain view: the surrogates, their span and
  /// the out-of-span fallbacks. Points into this sampler.
  void write_fast_fields(SamplerView& view) const;

 private:
  /// Direct (surrogate-free) fast evaluations: the construction-time fit
  /// samples and the out-of-span fallbacks.
  [[nodiscard]] double average_time_constant_direct_fast(double v_diff) const;
  [[nodiscard]] double charge_injection_error_direct_fast(double v_diff) const;

  SwitchModel switch_;
  double common_mode_;
  double c_load_;
  adc::common::Chebyshev tau_fit_;  ///< even part: tau_avg(v) = T(v^2)
  adc::common::Chebyshev inj_fit_;  ///< odd part: q_err(v) = v * H(v^2)
  double fit_vmax2_ = -1.0;         ///< fitted span in z = v^2; < 0 = none
};

}  // namespace adc::analog
