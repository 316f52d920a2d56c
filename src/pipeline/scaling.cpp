#include "pipeline/scaling.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace adc::pipeline {

ScalingPolicy::ScalingPolicy(std::vector<double> profile, std::string name)
    : profile_(std::move(profile)), name_(std::move(name)) {
  adc::common::require(!profile_.empty(), "ScalingPolicy: empty profile");
  for (double f : profile_) {
    adc::common::require(f > 0.0 && f <= 1.0, "ScalingPolicy: factors must be in (0, 1]");
  }
}

ScalingPolicy ScalingPolicy::paper() {
  return ScalingPolicy({1.0, 2.0 / 3.0, 1.0 / 3.0}, "paper-1-2/3-1/3");
}

ScalingPolicy ScalingPolicy::uniform() { return ScalingPolicy({1.0}, "uniform"); }

ScalingPolicy ScalingPolicy::geometric(double ratio, double floor) {
  adc::common::require(ratio > 0.0 && ratio < 1.0, "ScalingPolicy: ratio outside (0, 1)");
  adc::common::require(floor > 0.0 && floor <= 1.0, "ScalingPolicy: floor outside (0, 1]");
  std::vector<double> profile;
  double f = 1.0;
  // Generate until the floor dominates; factor() repeats the last entry.
  while (f > floor) {
    profile.push_back(f);  // lint-ok: construction-time policy table, runs once per design
    f *= ratio;
  }
  profile.push_back(floor);  // lint-ok: construction-time policy table, runs once per design
  return ScalingPolicy(std::move(profile), "geometric");
}

double ScalingPolicy::factor(std::size_t i) const {
  return i < profile_.size() ? profile_[i] : profile_.back();
}

}  // namespace adc::pipeline
