/// \file distribution.hpp
/// Current-mirror distribution from the master bias to the ten stages.
///
/// The master current I through M0 is mirrored to IBIAS_1..IBIAS_10 (paper
/// Fig. 3). Each mirror leg carries the stage's scaling ratio (1 for the
/// first stage, 2/3 for the second, 1/3 for the rest — paper section 2) plus
/// a small random mirror mismatch.
#pragma once

#include <cstddef>
#include <vector>

#include "common/contracts.hpp"
#include "common/random.hpp"

namespace adc::bias {

/// Parameters of the mirror bank.
struct MirrorBankSpec {
  /// Per-stage nominal ratios relative to the master current.
  std::vector<double> ratios;
  /// One-sigma relative mismatch of each mirror leg.
  double sigma_mismatch = 0.01;
};

/// One realized mirror bank.
class MirrorBank {
 public:
  MirrorBank(const MirrorBankSpec& spec, adc::common::Rng& rng);

  /// Number of legs.
  [[nodiscard]] std::size_t size() const { return gains_.size(); }

  /// Current of leg `i` [A] given the master current. Called once per stage
  /// per sample, so it lives in the header: one multiply, with the bounds
  /// check compiled out in release builds.
  [[nodiscard]] double leg_current(std::size_t i, double master_current) const {
    ADC_EXPECT(i < gains_.size(), "MirrorBank::leg_current: leg index out of range");
    return gains_[i] * master_current;
  }

  /// Total current drawn by all legs [A].
  [[nodiscard]] double total_current(double master_current) const;

  /// Realized gain (ratio * mismatch) of leg `i`.
  [[nodiscard]] double realized_gain(std::size_t i) const { return gains_.at(i); }

 private:
  std::vector<double> gains_;
};

}  // namespace adc::bias
