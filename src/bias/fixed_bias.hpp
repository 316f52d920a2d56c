/// \file fixed_bias.hpp
/// Conventional fixed bias-current generator — the baseline the paper's SC
/// generator replaces.
///
/// A fixed generator cannot track capacitor corners or conversion rate, so it
/// must be sized for the *largest possible capacitive load* at the *maximum
/// conversion rate*: nominal current times a design margin. Everywhere else
/// the converter burns the margin as wasted power. Ablation bench A4 runs
/// both generators across capacitor corners and rates to quantify this.
#pragma once

#include "bias/bias_source.hpp"
#include "common/random.hpp"
#include "common/units.hpp"

namespace adc::bias {

using namespace adc::common::literals;

/// Design parameters of a conventional current reference.
struct FixedBiasSpec {
  /// Current required at the design point with nominal capacitors [A].
  double design_current = 1.0_mA;
  /// Over-design margin covering the slow-capacitor corner and the maximum
  /// intended rate (the paper's motivation: "large fixed bias currents ...
  /// that can handle the largest possible capacitive load").
  double margin = 1.35;
  /// One-sigma relative spread of the realized current (resistor spread of a
  /// V/R reference; far worse than the bandgap-over-C_B of eq. 1).
  double sigma_process = 0.10;
  /// Quiescent overhead of the generator [A].
  double overhead_current = 100.0_uA;

  bool operator==(const FixedBiasSpec&) const = default;
};

/// One realized fixed generator.
class FixedBiasGenerator final : public BiasSource {
 public:
  FixedBiasGenerator(const FixedBiasSpec& spec, adc::common::Rng& rng);

  /// Rate-independent output: design current times margin times the
  /// process-spread draw.
  [[nodiscard]] double master_current(double f_cr) const override;

  [[nodiscard]] double overhead_current() const override { return spec_.overhead_current; }

  [[nodiscard]] const FixedBiasSpec& spec() const { return spec_; }

 private:
  FixedBiasSpec spec_;
  double process_factor_;
};

}  // namespace adc::bias
