/// \file scaling.hpp
/// Stage scaling policies.
///
/// Early pipeline stages see the input at full precision; each 1.5-bit stage
/// relaxes the requirements on everything after it by its gain of two. The
/// paper (after [1], [2]) scales the sampling capacitors and bias currents:
/// stage 1 at full size, stage 2 at 2/3, stages 3..10 at 1/3 — "lower area
/// and lower power consumption with only small degradation in converter
/// performance". Alternative policies exist for the ablation bench A1.
#pragma once

#include <string>
#include <vector>

namespace adc::pipeline {

/// A per-stage size/bias scaling profile.
class ScalingPolicy {
 public:
  /// The paper's profile: {1, 2/3, 1/3, 1/3, ...}.
  static ScalingPolicy paper();

  /// No scaling: every stage at full size (the conservative baseline).
  static ScalingPolicy uniform();

  /// Geometric scaling by `ratio` per stage with a floor (aggressive;
  /// typically ratio = 0.5, the noise-optimal limit).
  static ScalingPolicy geometric(double ratio, double floor);

  /// Custom profile.
  static ScalingPolicy custom(std::vector<double> factors, std::string name);

  /// Scaling factor for stage `i` (0-based). Profiles shorter than the chain
  /// repeat their last entry.
  [[nodiscard]] double factor(std::size_t i) const;

  /// The factors for a chain of `n` stages.
  [[nodiscard]] std::vector<double> factors(std::size_t n) const;

  /// Sum of factors over `n` stages — proportional to the pipeline's total
  /// capacitor area and analog bias current.
  [[nodiscard]] double total(std::size_t n) const;

  [[nodiscard]] const std::string& name() const { return name_; }

  bool operator==(const ScalingPolicy&) const = default;

 private:
  ScalingPolicy(std::vector<double> profile, std::string name);
  std::vector<double> profile_;
  std::string name_;
};

}  // namespace adc::pipeline
