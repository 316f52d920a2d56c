/// Unit tests for the silicon-area model.
#include "power/area.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "pipeline/design.hpp"

namespace pw = adc::power;
namespace ap = adc::pipeline;

TEST(AreaModel, TotalMatchesPaperDie) {
  const pw::AreaModel model(ap::nominal_area_spec());
  const auto a = model.estimate(ap::ScalingPolicy::paper(), 10);
  EXPECT_NEAR(a.total(), 0.86e-6, 0.02e-6);
}

TEST(AreaModel, BreakdownSums) {
  const pw::AreaModel model(ap::nominal_area_spec());
  const auto a = model.estimate(ap::ScalingPolicy::paper(), 10);
  EXPECT_NEAR(a.pipeline + a.flash + a.bias_and_references + a.digital + a.clocking +
                  a.routing,
              a.total(), 1e-15);
  EXPECT_GT(a.pipeline, 0.0);
}

TEST(AreaModel, ScalingShrinksThePipeline) {
  const pw::AreaModel model(ap::nominal_area_spec());
  const auto scaled = model.estimate(ap::ScalingPolicy::paper(), 10);
  const auto unscaled = model.estimate(ap::ScalingPolicy::uniform(), 10);
  EXPECT_LT(scaled.pipeline, 0.55 * unscaled.pipeline);
  // Only the pipeline block changes.
  EXPECT_DOUBLE_EQ(scaled.digital, unscaled.digital);
}

TEST(AreaModel, StageAreaFloorLimitsTheSaving) {
  // The paper's 1/3 stages sit below the 35 % floor: comparators, clocking
  // and routing do not scale with the caps, so each costs 0.35 of a full
  // stage, not 1/3.
  const pw::AreaModel model(ap::nominal_area_spec());
  const auto a = model.estimate(ap::ScalingPolicy::paper(), 10);
  const auto spec = ap::nominal_area_spec();
  EXPECT_NEAR(a.pipeline, (1.0 + 2.0 / 3.0 + 8.0 * 0.35) * spec.stage_unit, 1e-15);
}

TEST(AreaModel, InvalidSpecThrows) {
  pw::AreaSpec spec;
  spec.stage_unit = 0.0;
  EXPECT_THROW(pw::AreaModel{spec}, adc::common::ConfigError);
}
