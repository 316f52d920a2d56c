/// Unit tests for stage scaling policies.
#include "pipeline/scaling.hpp"

#include <gtest/gtest.h>

namespace ap = adc::pipeline;

namespace {

/// Sum of the factors over `n` stages: the pipeline's total capacitor area
/// and analog bias current in stage-1 units.
double total(const ap::ScalingPolicy& p, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += p.factor(i);
  return s;
}

}  // namespace

TEST(ScalingPolicy, PaperProfile) {
  const auto p = ap::ScalingPolicy::paper();
  EXPECT_DOUBLE_EQ(p.factor(0), 1.0);
  EXPECT_DOUBLE_EQ(p.factor(1), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(p.factor(2), 1.0 / 3.0);
  // "...and the rest of the stages with 1/3": the profile repeats.
  EXPECT_DOUBLE_EQ(p.factor(9), 1.0 / 3.0);
  EXPECT_EQ(p.name(), "paper-1-2/3-1/3");
}

TEST(ScalingPolicy, PaperTotalForTenStages) {
  const auto p = ap::ScalingPolicy::paper();
  // 1 + 2/3 + 8*(1/3) = 4.333..: the pipeline costs 4.33 stage-1 units of
  // capacitance and bias instead of 10 — the paper's area/power saving.
  EXPECT_NEAR(total(p, 10), 13.0 / 3.0, 1e-12);
}

TEST(ScalingPolicy, UniformIsAllOnes) {
  const auto p = ap::ScalingPolicy::uniform();
  for (std::size_t i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(p.factor(i), 1.0);
  EXPECT_DOUBLE_EQ(total(p, 10), 10.0);
}
