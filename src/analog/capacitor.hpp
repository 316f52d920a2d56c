/// \file capacitor.hpp
/// Capacitors with process spread and local mismatch.
///
/// The paper's sampling capacitors are parasitic metal capacitors (C1, C2 in
/// its Fig. 2). Two statistical effects matter:
///  * *absolute* spread: the whole die's capacitance scales by a common
///    factor (large in modern processes; the reason for the SC bias
///    generator, eq. 1);
///  * *local mismatch*: C1/C2 ratio errors, which set the MDAC gain and DAC
///    level errors behind the Table I DNL/INL.
#pragma once

#include "common/random.hpp"

namespace adc::analog {

/// Statistical description of a capacitor population.
struct CapacitorSpec {
  double nominal_farad = 0.0;
  /// One-sigma relative *local* mismatch of a unit capacitor
  /// (e.g. 0.001 = 0.1 %).
  double sigma_mismatch = 0.0;
  /// Relative *global* process spread applied identically to every capacitor
  /// drawn from the same ProcessCorner (e.g. +0.15 at a fast-cap corner).
  double global_spread = 0.0;

  bool operator==(const CapacitorSpec&) const = default;
};

/// One realized capacitor.
class Capacitor {
 public:
  /// Draw a capacitor from `spec` using `rng` for the local mismatch.
  Capacitor(const CapacitorSpec& spec, adc::common::Rng& rng);

  /// Realized value [F], including spread and mismatch.
  [[nodiscard]] double value() const { return value_; }
  /// Designed value [F].
  [[nodiscard]] double nominal() const { return nominal_; }

 private:
  double value_;
  double nominal_;
};

}  // namespace adc::analog
