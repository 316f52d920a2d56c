/// Unit tests for the reference buffer with off-chip decoupling.
#include "analog/refbuffer.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/random.hpp"

namespace aa = adc::analog;

namespace {

aa::RefBufferSpec clean_spec() {
  aa::RefBufferSpec s;
  s.nominal_vref = 1.0;
  s.common_mode = 0.9;
  s.output_resistance = 2.0;
  s.decap_farad = 100e-9;
  s.charge_per_event = 1e-12;
  s.sigma_level = 0.0;
  return s;
}

}  // namespace

TEST(ReferenceBuffer, IdealHasNoErrors) {
  auto spec = clean_spec();
  spec.charge_per_event = 0.0;
  spec.output_resistance = 0.0;
  adc::common::Rng rng(2);
  aa::ReferenceBuffer buf(spec, rng);
  EXPECT_DOUBLE_EQ(buf.vref(), 1.0);
  EXPECT_DOUBLE_EQ(buf.common_mode(), 0.9);
  buf.consume(10.0, 9e-9);
  EXPECT_DOUBLE_EQ(buf.vref(), 1.0);
}

TEST(ReferenceBuffer, ConsumeDroopsReference) {
  adc::common::Rng rng(1);
  aa::ReferenceBuffer buf(clean_spec(), rng);
  const double v0 = buf.vref();
  buf.consume(10.0, 9e-9);
  EXPECT_LT(buf.vref(), v0);
  // Droop magnitude: activity * q / C, partially recovered over the 9 ns
  // sample period with the 200 ns buffer time constant.
  const double expected = 10.0 * 1e-12 / 100e-9 * std::exp(-9e-9 / 200e-9);
  EXPECT_NEAR(v0 - buf.vref(), expected, 1e-8);
}

TEST(ReferenceBuffer, RecoversBetweenSamples) {
  adc::common::Rng rng(2);
  aa::ReferenceBuffer buf(clean_spec(), rng);
  const double v0 = buf.vref();
  buf.consume(10.0, 9e-9);
  const double drooped = buf.vref();
  // A long idle period (many time constants) recovers the decap.
  buf.consume(0.0, 1.0);
  EXPECT_GT(buf.vref(), drooped);
  EXPECT_NEAR(buf.vref(), v0, 1e-12);
}

TEST(ReferenceBuffer, SteadyStateDroopBounded) {
  adc::common::Rng rng(3);
  aa::ReferenceBuffer buf(clean_spec(), rng);
  for (int i = 0; i < 100000; ++i) buf.consume(5.0, 9e-9);
  // Equilibrium: droop_ss = dv / (1 - exp(-T/tau)) ~ dv * tau/T.
  const double dv = 5.0 * 1e-12 / 100e-9;
  const double tau = 2.0 * 100e-9;
  EXPECT_NEAR(1.0 - buf.vref(), dv * tau / 9e-9, 0.2 * dv * tau / 9e-9);
}

TEST(ReferenceBuffer, ResetClearsDroop) {
  adc::common::Rng rng(4);
  aa::ReferenceBuffer buf(clean_spec(), rng);
  buf.consume(10.0, 9e-9);
  buf.reset();
  EXPECT_DOUBLE_EQ(buf.vref(), 1.0);
}

TEST(ReferenceBuffer, StaticLevelError) {
  auto spec = clean_spec();
  spec.sigma_level = 5e-3;
  spec.charge_per_event = 0.0;
  adc::common::Rng rng(5);
  const aa::ReferenceBuffer buf(spec, rng);
  EXPECT_NE(buf.vref(), 1.0);
  EXPECT_NEAR(buf.vref(), 1.0, 25e-3);  // within 5 sigma
}

TEST(ReferenceBuffer, InvalidSpecThrows) {
  auto spec = clean_spec();
  spec.decap_farad = 0.0;
  adc::common::Rng rng(6);
  EXPECT_THROW(aa::ReferenceBuffer(spec, rng), adc::common::ConfigError);
}
