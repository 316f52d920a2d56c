/// \file leakage.hpp
/// Signal-dependent junction/subthreshold leakage on the hold capacitors.
///
/// During the amplification (hold) phase the sampled charge droops through
/// the reverse-biased junctions of the off switches. The droop integrates
/// over half a clock period, so it scales as 1/f_CR: negligible at 110 MS/s
/// but visible at a few MS/s — this is the mechanism behind the SFDR fall at
/// the left edge of the paper's Fig. 5. The leakage current is modelled as
/// affine in the node voltage with a per-side mismatch, so the differential
/// droop has both a linear (gain) and a residual even-order component.
#pragma once

#include "common/random.hpp"
#include "common/units.hpp"

namespace adc::analog {

using namespace adc::common::literals;

/// Leakage parameters for the pair of hold nodes of one stage.
struct LeakageSpec {
  /// Nominal leakage at the common-mode operating point [A] per side.
  double i0 = 2.0_nA;
  /// Voltage coefficient [1/V]: i(u) = i0*(1 + k_v*(u - u0)).
  double k_v = 0.9;
  /// One-sigma relative mismatch between the two sides.
  double sigma_mismatch = 0.10;
  /// Operating-point voltage u0 the coefficient is referenced to [V].
  double u0 = 0.9;

  bool operator==(const LeakageSpec&) const = default;
};

/// Realized leakage pair for one stage's differential hold nodes.
class HoldLeakage {
 public:
  HoldLeakage(const LeakageSpec& spec, adc::common::Rng& rng);

  /// No leakage (ideal configuration).
  static HoldLeakage none();

  /// Differential droop [V] accumulated over `t_hold` seconds on per-side
  /// hold capacitance `c_hold` [F] while holding differential value `v_diff`
  /// around common mode u0. In the header: one call per stage per sample,
  /// all straight-line arithmetic.
  [[nodiscard]] double differential_droop(double v_diff, double t_hold, double c_hold) const {
    if (spec_.i0 <= 0.0 || t_hold <= 0.0) return 0.0;
    // Per-side node voltages relative to the reference point u0.
    const double dp = 0.5 * v_diff;
    const double dn = -0.5 * v_diff;
    const double ip = spec_.i0 * scale_p_ * (1.0 + spec_.k_v * dp);
    const double in = spec_.i0 * scale_n_ * (1.0 + spec_.k_v * dn);
    // Both sides discharge towards ground: each node loses i*t/C; the
    // differential value loses the *difference* of the two droops.
    const double droop_p = ip * t_hold / c_hold;
    const double droop_n = in * t_hold / c_hold;
    return droop_p - droop_n;
  }

  [[nodiscard]] const LeakageSpec& spec() const { return spec_; }

  /// Realized per-side mismatch scales (fast-profile droop precompute).
  [[nodiscard]] double scale_p() const { return scale_p_; }
  [[nodiscard]] double scale_n() const { return scale_n_; }

 private:
  HoldLeakage(const LeakageSpec& spec, double mis_p, double mis_n);
  LeakageSpec spec_;
  double scale_p_;
  double scale_n_;
};

}  // namespace adc::analog
