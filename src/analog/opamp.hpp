/// \file opamp.hpp
/// Macromodel of the two-stage Miller opamp with differential-pair output
/// stage (the paper's stage amplifier, after Kelly et al., ISSCC 2001).
///
/// The model captures what matters for a pipeline stage residue:
///  * static closed-loop gain error from finite DC gain: 1/(1 + 1/(A0*beta));
///  * dynamic settling error: single-pole linear settling with time constant
///    tau = 1/(2*pi*beta*GBW), preceded by a slew-limited phase when the step
///    exceeds what the input pair can handle;
///  * bias dependence: gm scales as sqrt(I) (square law), so GBW ~ sqrt(I)
///    and SR ~ I. Combined with the SC bias generator (I ~ f_CR) this yields
///    the Fig. 5 high-rate roll-off: settling time constants per half-period
///    N_tau ~ 1/sqrt(f_CR);
///  * weak gm compression with output amplitude, making the settling error
///    signal-dependent (distortion, not just gain error) near the speed limit;
///  * output swing clipping.
#pragma once

#include <cstdint>

#include "common/fidelity.hpp"
#include "common/units.hpp"

namespace adc::analog {

using namespace adc::common::literals;

/// Opamp electrical parameters, specified at a nominal tail bias current.
struct OpampParams {
  double dc_gain = 10000.0;        ///< A0, linear (80 dB)
  double gbw_hz = 900.0_MHz;       ///< unity-gain bandwidth at nominal bias
  double slew_rate = 1.2e9;        ///< [V/s] at nominal bias  // lint-ok: no V/s literal
  double bias_nominal = 1.0_mA;    ///< [A] tail current the above refer to
  double output_swing = 1.4;       ///< max |Vout| differential [V]
  /// Relative lengthening of the settling time constant at full output swing
  /// (gm compression): tau_eff = tau * (1 + compression * |vout|/swing).
  double gm_compression = 0.08;

  bool operator==(const OpampParams&) const = default;
};

/// Result of settling one amplification phase.
struct SettleResult {
  double output = 0.0;        ///< settled differential output [V]
  double static_error = 0.0;  ///< contribution of finite DC gain [V]
  double dynamic_error = 0.0; ///< contribution of incomplete settling [V]
  bool slew_limited = false;  ///< the step entered the slew-limited region
  bool clipped = false;       ///< output hit the swing limit
};

/// Behavioral two-stage Miller opamp.
class Opamp {
 public:
  explicit Opamp(const OpampParams& params);

  /// GBW [Hz] at tail bias `ibias` [A] (square-law gm ~ sqrt(I)).
  [[nodiscard]] double gbw_at_bias(double ibias) const;

  /// Slew rate [V/s] at tail bias `ibias` [A] (SR = I/Cc ~ I).
  [[nodiscard]] double slew_at_bias(double ibias) const;

  /// Closed-loop time constant [s] for feedback factor `beta` at bias
  /// `ibias`: tau = 1 / (2*pi*beta*GBW).
  [[nodiscard]] double time_constant(double beta, double ibias) const;

  /// Settle from 0 towards `target` for `t_settle` seconds in closed loop
  /// with feedback factor `beta` at tail bias `ibias`.
  [[nodiscard]] SettleResult settle(double target, double t_settle, double beta,
                                    double ibias) const;

  /// Loop constants of the settle model at one (beta, ibias) operating
  /// point, stored with their reciprocals so the per-sample settle needs at
  /// most one divide. The `fast` profile precomputes these per stage (the
  /// sqrt/division chain they hide is the single most expensive part of a
  /// cached settle call under bias ripple) and rescales them analytically
  /// per sample: for a bias factor f, GBW ~ sqrt(I) gives tau *= 1/sqrt(f)
  /// and SR ~ I gives sr *= f.
  struct SettleCoeffs {
    double inv_gain_denom = 0.0;  ///< 1 / (1 + 1/(A0*beta))
    double neg_inv_tau0 = 0.0;    ///< -1 / time_constant(beta, ibias)
    double sr = 0.0;              ///< slew_at_bias(ibias)
    double sr_tau0 = 0.0;         ///< sr * tau0 (linear-regime step limit)
    double inv_swing = 0.0;       ///< 1 / output_swing
  };

  /// Compute the settle constants for feedback factor `beta` at bias
  /// `ibias` (construction-time helper for the fast profile).
  [[nodiscard]] SettleCoeffs settle_coeffs(double beta, double ibias) const;

  [[nodiscard]] const OpampParams& params() const { return params_; }

 private:
  /// Shared settle body; `P` selects the exp kernel. `kExact` instantiates
  /// exactly the operation sequence the bit-identity contract pins.
  template <adc::common::FidelityProfile P>
  SettleResult settle_impl(double target, double t_settle, double beta, double ibias) const;

  OpampParams params_;

  /// settle() is called once per stage per sample with a (beta, ibias) pair
  /// that only changes when the bias ripples, so the derived terms — the
  /// finite-gain denominator, the base time constant (a sqrt + division
  /// chain) and the slew rate — are cached on the arguments' exact bit
  /// patterns. A recompute on any bit change keeps every settle() result
  /// bit-identical to the uncached code. The cache makes settle() logically
  /// const but not safe against concurrent calls on one instance; converters
  /// are single-threaded objects (the parallel runtime builds one per task).
  mutable std::uint64_t settle_beta_bits_ = 0;
  mutable std::uint64_t settle_ibias_bits_ = 0;
  mutable bool settle_cache_valid_ = false;
  mutable double settle_gain_denom_ = 0.0;  ///< 1 + 1/(A0*beta)
  mutable double settle_tau0_ = 0.0;        ///< time_constant(beta, ibias)
  mutable double settle_sr_ = 0.0;          ///< slew_at_bias(ibias)
};

}  // namespace adc::analog
