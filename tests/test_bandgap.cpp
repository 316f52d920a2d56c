/// Unit tests for the bandgap reference model.
#include "analog/bandgap.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/random.hpp"

namespace aa = adc::analog;

TEST(Bandgap, IdealIsExactEverywhere) {
  aa::BandgapSpec spec;
  spec.nominal_output = 1.2;
  spec.curvature = 0.0;
  spec.supply_sensitivity = 0.0;
  spec.sigma_process = 0.0;
  adc::common::Rng rng(4);
  const aa::Bandgap bg(spec, rng);
  EXPECT_DOUBLE_EQ(bg.output(spec.t0_kelvin, spec.vdd_nominal), 1.2);
  EXPECT_DOUBLE_EQ(bg.output(233.0, 1.6), 1.2);
  EXPECT_DOUBLE_EQ(bg.output(398.0, 2.0), 1.2);
}

TEST(Bandgap, CurvatureIsSecondOrder) {
  aa::BandgapSpec spec;
  spec.sigma_process = 0.0;
  adc::common::Rng rng(1);
  const aa::Bandgap bg(spec, rng);
  const double v0 = bg.output(spec.t0_kelvin, spec.vdd_nominal);
  const double v_hot = bg.output(spec.t0_kelvin + 100.0, spec.vdd_nominal);
  const double v_cold = bg.output(spec.t0_kelvin - 100.0, spec.vdd_nominal);
  // Symmetric deviation (no first-order term) and small (tens of uV).
  EXPECT_NEAR(v_hot, v_cold, 1e-9);
  EXPECT_LT(std::abs(v_hot - v0), 100e-6);
  EXPECT_GT(std::abs(v_hot - v0), 1e-6);
}

TEST(Bandgap, SupplySensitivity) {
  aa::BandgapSpec spec;
  spec.sigma_process = 0.0;
  spec.supply_sensitivity = 2e-3;
  adc::common::Rng rng(2);
  const aa::Bandgap bg(spec, rng);
  const double dv = bg.output(spec.t0_kelvin, 2.0) - bg.output(spec.t0_kelvin, 1.8);
  EXPECT_NEAR(dv, 2e-3 * 0.2, 1e-12);
}

TEST(Bandgap, ProcessSpreadReproducible) {
  aa::BandgapSpec spec;
  spec.sigma_process = 5e-3;
  const auto nominal = [&spec](adc::common::Rng& rng) {
    return aa::Bandgap(spec, rng).output(spec.t0_kelvin, spec.vdd_nominal);
  };
  adc::common::Rng a(9);
  adc::common::Rng b(9);
  EXPECT_DOUBLE_EQ(nominal(a), nominal(b));
  adc::common::Rng c = a.child("x");
  adc::common::Rng d = a.child("y");
  EXPECT_NE(nominal(c), nominal(d));
}

TEST(Bandgap, InvalidSpecThrows) {
  aa::BandgapSpec spec;
  spec.nominal_output = -1.0;
  adc::common::Rng rng(3);
  EXPECT_THROW(aa::Bandgap(spec, rng), adc::common::ConfigError);
}
