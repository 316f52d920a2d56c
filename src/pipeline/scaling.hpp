/// \file scaling.hpp
/// Stage scaling policies.
///
/// Early pipeline stages see the input at full precision; each 1.5-bit stage
/// relaxes the requirements on everything after it by its gain of two. The
/// paper (after [1], [2]) scales the sampling capacitors and bias currents:
/// stage 1 at full size, stage 2 at 2/3, stages 3..10 at 1/3 — "lower area
/// and lower power consumption with only small degradation in converter
/// performance". The unscaled policy is the baseline that claim is measured
/// against (Paper.A1StageScaling in tests/test_paper.cpp).
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

  /// Scaling factor for stage `i` (0-based). Profiles shorter than the chain
  /// repeat their last entry.
  [[nodiscard]] double factor(std::size_t i) const;

  [[nodiscard]] const std::string& name() const { return name_; }

  bool operator==(const ScalingPolicy&) const = default;

 private:
  ScalingPolicy(std::vector<double> profile, std::string name);
  std::vector<double> profile_;
  std::string name_;
};

}  // namespace adc::pipeline
