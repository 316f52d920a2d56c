/// Unit tests for the behavioral MOS model.
#include "analog/mos.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace aa = adc::analog;

TEST(Mos, FactoryParameters) {
  const auto n = aa::MosParams::nmos_018(10.0);
  const auto p = aa::MosParams::pmos_018(10.0);
  EXPECT_EQ(n.type, aa::MosType::kNmos);
  EXPECT_EQ(p.type, aa::MosType::kPmos);
  EXPECT_GT(n.kp, p.kp);  // electron mobility > hole mobility
  EXPECT_DOUBLE_EQ(n.w_over_l, 10.0);
}

TEST(Mos, BodyEffectRaisesVth) {
  const aa::Mos m(aa::MosParams::nmos_018(1.0));
  EXPECT_DOUBLE_EQ(m.vth(0.0), m.params().vth0);
  EXPECT_GT(m.vth(0.5), m.vth(0.0));
  EXPECT_GT(m.vth(1.0), m.vth(0.5));
  // Negative vsb clamps (no forward-bias modelling).
  EXPECT_DOUBLE_EQ(m.vth(-0.3), m.params().vth0);
}

TEST(Mos, TriodeConductanceMonotoneInOverdrive) {
  const aa::Mos m(aa::MosParams::nmos_018(10.0));
  double prev = 0.0;
  for (double vov = 0.05; vov < 1.2; vov += 0.05) {
    const double g = m.g_on(vov);
    EXPECT_GT(g, prev);
    prev = g;
  }
}

TEST(Mos, TriodeConductanceSoftTurnOff) {
  const aa::Mos m(aa::MosParams::nmos_018(10.0));
  // Deeply off: negligible conductance, but continuous (no kink).
  EXPECT_LT(m.g_on(-0.5), 1e-7);
  EXPECT_GT(m.g_on(0.0), 0.0);  // subthreshold tail
  EXPECT_LT(m.g_on(0.0), m.g_on(0.1));
}

TEST(Mos, GOnContinuityAroundThreshold) {
  // The softplus turn-off must be smooth: finite difference slope bounded.
  const aa::Mos m(aa::MosParams::nmos_018(10.0));
  double prev = m.g_on(-0.3);
  for (double vov = -0.3; vov <= 0.3; vov += 0.005) {
    const double g = m.g_on(vov);
    EXPECT_LT(std::abs(g - prev), 0.01 * m.g_on(1.0) + 1e-12);
    prev = g;
  }
}

TEST(Mos, InvalidParamsThrow) {
  aa::MosParams bad = aa::MosParams::nmos_018(1.0);
  bad.w_over_l = -1.0;
  EXPECT_THROW(aa::Mos{bad}, adc::common::ConfigError);
  bad = aa::MosParams::nmos_018(1.0);
  bad.kp = 0.0;
  EXPECT_THROW(aa::Mos{bad}, adc::common::ConfigError);
}

class GOnWidthSweep : public ::testing::TestWithParam<double> {};

TEST_P(GOnWidthSweep, ConductanceScalesWithWidth) {
  const double wl = GetParam();
  const aa::Mos unit(aa::MosParams::nmos_018(1.0));
  const aa::Mos wide(aa::MosParams::nmos_018(wl));
  EXPECT_NEAR(wide.g_on(0.5) / unit.g_on(0.5), wl, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Widths, GOnWidthSweep, ::testing::Values(2.0, 10.0, 60.0, 300.0));
