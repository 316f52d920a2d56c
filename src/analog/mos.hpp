/// \file mos.hpp
/// Long-channel square-law MOS model with body effect and mobility
/// degradation. This is deliberately a *behavioral* device model: it is used
/// to derive switch on-conductance versus input voltage (the distortion
/// mechanism of the paper's un-bootstrapped input switches) and the
/// bias-current dependence of opamp transconductance (gm ~ sqrt(Id)), which
/// sets how settling scales with the SC bias generator's output.
#pragma once

namespace adc::analog {

/// Device polarity.
enum class MosType { kNmos, kPmos };

/// Process/device parameters. Voltages are magnitudes for PMOS.
struct MosParams {
  MosType type = MosType::kNmos;
  double w_over_l = 1.0;     ///< aspect ratio W/L
  double kp = 340e-6;        ///< u0*Cox [A/V^2]  // lint-ok: no A/V^2 literal
  double vth0 = 0.45;        ///< zero-bias threshold magnitude [V]
  double gamma = 0.45;       ///< body-effect coefficient [sqrt(V)]
  double two_phi_f = 0.85;   ///< surface potential [V]
  double theta = 0.25;       ///< mobility degradation [1/V]
  double lambda = 0.06;      ///< channel-length modulation [1/V]

  /// Representative NMOS in the 0.18um digital process.
  static MosParams nmos_018(double w_over_l);
  /// Representative PMOS in the 0.18um digital process.
  static MosParams pmos_018(double w_over_l);
};

/// Stateless evaluator for one transistor.
class Mos {
 public:
  explicit Mos(const MosParams& params);

  /// Threshold magnitude including body effect, for source-to-bulk voltage
  /// `vsb` >= 0 (magnitude).
  [[nodiscard]] double vth(double vsb) const;

  /// Deep-triode on-conductance for overdrive `vov` = |Vgs| - Vth:
  /// g_on = kp * W/L * vov / (1 + theta*vov). Returns 0 for vov <= 0.
  [[nodiscard]] double g_on(double vov) const;

  [[nodiscard]] const MosParams& params() const { return params_; }

 private:
  MosParams params_;
  /// Hoisted sqrt(two_phi_f): the body-effect formula subtracts this
  /// constant on every vth() call, and vth() sits on the per-sample
  /// tracking path (several calls per conversion).
  double sqrt_two_phi_f_;
};

}  // namespace adc::analog
