#include "pipeline/scaling.hpp"

namespace adc::pipeline {

ScalingPolicy::ScalingPolicy(std::vector<double> profile, std::string name)
    : profile_(std::move(profile)), name_(std::move(name)) {}

ScalingPolicy ScalingPolicy::paper() {
  return ScalingPolicy({1.0, 2.0 / 3.0, 1.0 / 3.0}, "paper-1-2/3-1/3");
}

ScalingPolicy ScalingPolicy::uniform() { return ScalingPolicy({1.0}, "uniform"); }

double ScalingPolicy::factor(std::size_t i) const {
  return i < profile_.size() ? profile_[i] : profile_.back();
}

}  // namespace adc::pipeline
