/// Unit tests for the power model (paper Fig. 4 and Table I power row).
#include "power/power_model.hpp"

#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "oracles/linear_fit.hpp"
#include "pipeline/design.hpp"

namespace pw = adc::power;
namespace ap = adc::pipeline;

namespace {

ap::PipelineAdc nominal_adc() { return ap::PipelineAdc(ap::nominal_design()); }

pw::PowerModel nominal_model() { return pw::PowerModel(ap::nominal_power_spec()); }

}  // namespace

TEST(PowerModel, NominalPointMatchesPaper) {
  auto adc = nominal_adc();
  const auto p = nominal_model().estimate(adc, 110e6);
  EXPECT_NEAR(p.total(), 97e-3, 2e-3);
}

TEST(PowerModel, PaperSecondPoint) {
  auto adc = nominal_adc();
  const auto p = nominal_model().estimate(adc, 130e6);
  EXPECT_NEAR(p.total(), 110e-3, 3e-3);
}

TEST(PowerModel, LinearInConversionRate) {
  auto adc = nominal_adc();
  const auto model = nominal_model();
  std::vector<double> f;
  std::vector<double> p;
  for (double rate = 10e6; rate <= 140e6; rate += 10e6) {
    f.push_back(rate);
    p.push_back(model.estimate(adc, rate).total());
  }
  const auto fit = adc::common::linear_fit(f, p);
  EXPECT_GT(fit.r_squared, 0.9999);
  EXPECT_GT(fit.intercept, 0.0);  // static blocks
  EXPECT_LT(fit.intercept, 0.03); // but analog dominates
}

TEST(PowerModel, BreakdownSumsToTotal) {
  auto adc = nominal_adc();
  const auto p = nominal_model().estimate(adc);
  EXPECT_NEAR(p.pipeline_analog + p.bias_generator + p.reference_buffer + p.bandgap_cm +
                  p.comparators + p.digital,
              p.total(), 1e-12);
  // Analog pipeline dominates at speed (a pipeline ADC truism).
  EXPECT_GT(p.pipeline_analog, 0.5 * p.total());
}

TEST(PowerModel, ScalingPolicySavesPipelinePower) {
  auto paper_cfg = ap::nominal_design();
  auto uniform_cfg = ap::nominal_design();
  uniform_cfg.scaling = ap::ScalingPolicy::uniform();
  ap::PipelineAdc paper(paper_cfg);
  ap::PipelineAdc uniform(uniform_cfg);
  const auto model = nominal_model();
  const double p_paper = model.estimate(paper, 110e6).pipeline_analog;
  const double p_uniform = model.estimate(uniform, 110e6).pipeline_analog;
  EXPECT_NEAR(p_uniform / p_paper, 10.0 / (13.0 / 3.0), 0.05);
}

TEST(PowerModel, FixedBiasBurnsMoreAtLowRate) {
  auto sc_cfg = ap::nominal_design();
  auto fixed_cfg = ap::nominal_design();
  fixed_cfg.bias_scheme = ap::BiasScheme::kFixed;
  ap::PipelineAdc sc(sc_cfg);
  ap::PipelineAdc fixed(fixed_cfg);
  const auto model = nominal_model();
  // At 20 MS/s the SC generator scales down 5.5x; the fixed one cannot.
  EXPECT_GT(model.estimate(fixed, 20e6).pipeline_analog,
            4.0 * model.estimate(sc, 20e6).pipeline_analog);
}

TEST(PowerModel, RejectsNonPositiveRate) {
  auto adc = nominal_adc();
  EXPECT_THROW((void)nominal_model().estimate(adc, 0.0), adc::common::ConfigError);
}
