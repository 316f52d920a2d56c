/// Unit tests for the redundancy error-correction logic — including the
/// core property: an ADSC decision error within +/- V_REF/4 changes the raw
/// codes but not the corrected output.
#include "digital/correction.hpp"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace ad = adc::digital;

namespace {

/// Ideal 1.5-bit decision at nominal thresholds.
ad::StageCode ideal_decision(double v, double vref) {
  if (v > vref / 4.0) return ad::StageCode::kPlus;
  if (v < -vref / 4.0) return ad::StageCode::kMinus;
  return ad::StageCode::kZero;
}

/// Run an ideal 1.5-bit pipeline in doubles, optionally forcing stage
/// `force_stage` to a wrong decision `forced` (redundancy test).
ad::RawConversion ideal_chain(double vin, int stages, int flash_bits, double vref,
                              int force_stage = -1,
                              ad::StageCode forced = ad::StageCode::kZero) {
  ad::RawConversion raw;
  double x = vin;
  for (int i = 0; i < stages; ++i) {
    ad::StageCode d = ideal_decision(x, vref);
    if (i == force_stage) d = forced;
    raw.stage_codes.push_back(d);
    x = 2.0 * x - static_cast<double>(ad::value(d)) * vref;
  }
  const int half_levels = 1 << (flash_bits - 1);
  int f = 0;
  for (int k = 0; k < (1 << flash_bits) - 1; ++k) {
    const double th = static_cast<double>(k - half_levels + 1) * vref / half_levels;
    if (x > th) ++f;
  }
  raw.flash_code = static_cast<ad::FlashCode>(f);
  return raw;
}

/// The ideal 12-bit code for vin in [-vref, vref].
int ideal_code(double vin, int bits, double vref) {
  const double levels = std::pow(2.0, bits);
  auto code = static_cast<int>(std::floor((vin + vref) / (2.0 * vref) * levels));
  if (code < 0) code = 0;
  if (code >= static_cast<int>(levels)) code = static_cast<int>(levels) - 1;
  return code;
}

}  // namespace

TEST(ErrorCorrection, MidScale) {
  const ad::ErrorCorrection ec(10, 2);
  EXPECT_EQ(ec.resolution_bits(), 12);
  // All-zero decisions with the flash just above mid land at mid code.
  ad::RawConversion raw;
  raw.stage_codes.assign(10, ad::StageCode::kZero);
  raw.flash_code = 2;
  EXPECT_EQ(ec.correct(raw), 2048);
}

TEST(ErrorCorrection, FullScaleEndpoints) {
  const ad::ErrorCorrection ec(10, 2);
  ad::RawConversion lo;
  lo.stage_codes.assign(10, ad::StageCode::kMinus);
  lo.flash_code = 0;
  EXPECT_EQ(ec.correct(lo), 0);
  ad::RawConversion hi;
  hi.stage_codes.assign(10, ad::StageCode::kPlus);
  hi.flash_code = 3;
  EXPECT_EQ(ec.correct(hi), 4095);
}

TEST(ErrorCorrection, MatchesIdealQuantizerAcrossTheRange) {
  const ad::ErrorCorrection ec(10, 2);
  const double vref = 1.0;
  for (int k = -2000; k <= 2000; ++k) {
    // Sample mid-code voltages to avoid boundary ambiguity.
    const double v = (static_cast<double>(k) + 0.5) / 2048.0 * vref;
    if (std::abs(v) >= vref) continue;
    const auto raw = ideal_chain(v, 10, 2, vref);
    EXPECT_EQ(ec.correct(raw), ideal_code(v, 12, vref)) << "v=" << v;
  }
}

TEST(ErrorCorrection, RedundancyAbsorbsWrongDecisions) {
  // Force stage k to the neighbouring (wrong) decision towards the stage
  // input's own side: the residue stays inside +/- V_REF (the half bit of
  // overlap), so later stages re-encode the error and the corrected output
  // is unchanged. This is the redundancy property the paper relies on for
  // its loose ADSC comparators.
  const ad::ErrorCorrection ec(10, 2);
  const double vref = 1.0;
  for (int stage = 0; stage < 6; ++stage) {
    for (double v : {0.2499, 0.2501, -0.2499, -0.2501, 0.1, -0.05, 0.613, -0.387}) {
      const auto clean = ideal_chain(v, 10, 2, vref);
      // Recompute the forced stage's *input* to pick a legal wrong decision:
      // from kZero move towards the input's sign; from kPlus/kMinus move to
      // kZero. Either way the residue stays within +/- V_REF.
      double x = v;
      for (int i = 0; i < stage; ++i) {
        x = 2.0 * x -
            static_cast<double>(ad::value(clean.stage_codes[static_cast<std::size_t>(i)])) *
                vref;
      }
      const auto original = clean.stage_codes[static_cast<std::size_t>(stage)];
      // A wrong-by-one decision is only reachable by a bounded comparator
      // offset when the stage input lies within V_REF/4 of the threshold;
      // beyond that, flipping +/-1 to 0 would overrange the residue (and no
      // |offset| < V_REF/4 comparator would produce it). Skip those points.
      if (original != ad::StageCode::kZero && std::abs(x) >= vref / 2.0) continue;
      const auto flipped =
          original == ad::StageCode::kZero
              ? (x >= 0 ? ad::StageCode::kPlus : ad::StageCode::kMinus)
              : ad::StageCode::kZero;
      const auto forced = ideal_chain(v, 10, 2, vref, stage, flipped);
      const int c_clean = ec.correct(clean);
      const int c_forced = ec.correct(forced);
      EXPECT_NEAR(c_clean, c_forced, 1) << "stage " << stage << " v " << v;
    }
  }
}

TEST(ErrorCorrection, SaturatesOutOfRangePaths) {
  const ad::ErrorCorrection ec(10, 2);
  // A decision path that digitally underflows (all minus plus a forced
  // minus where plus was correct) clamps at 0 rather than wrapping.
  ad::RawConversion raw;
  raw.stage_codes.assign(10, ad::StageCode::kMinus);
  raw.flash_code = 0;
  raw.stage_codes[0] = ad::StageCode::kMinus;
  EXPECT_GE(ec.correct(raw), 0);
  raw.stage_codes.assign(10, ad::StageCode::kPlus);
  raw.flash_code = 3;
  EXPECT_LE(ec.correct(raw), 4095);
}

TEST(ErrorCorrection, OtherGeometries) {
  // 8 stages + 3-bit flash = 11 bits.
  const ad::ErrorCorrection ec(8, 3);
  EXPECT_EQ(ec.resolution_bits(), 11);
  ad::RawConversion raw;
  raw.stage_codes.assign(8, ad::StageCode::kZero);
  raw.flash_code = 4;  // 2^(3-1)
  EXPECT_EQ(ec.correct(raw), 1024);
  const double vref = 1.0;
  for (double v : {-0.7, -0.31, 0.0, 0.123, 0.5, 0.77}) {
    const auto chain = ideal_chain(v, 8, 3, vref);
    EXPECT_NEAR(ec.correct(chain), ideal_code(v, 11, vref), 1) << v;
  }
}

TEST(ErrorCorrection, RejectsBadInput) {
  EXPECT_THROW(ad::ErrorCorrection(0, 2), adc::common::ConfigError);
  EXPECT_THROW(ad::ErrorCorrection(10, 0), adc::common::ConfigError);
  EXPECT_THROW(ad::ErrorCorrection(30, 4), adc::common::ConfigError);
  const ad::ErrorCorrection ec(10, 2);
  ad::RawConversion wrong;
  wrong.stage_codes.assign(9, ad::StageCode::kZero);
  EXPECT_THROW((void)ec.correct(wrong), adc::common::ConfigError);
}

class OffsetInjectionSweep : public ::testing::TestWithParam<double> {};

TEST_P(OffsetInjectionSweep, ThresholdOffsetBelowQuarterVrefIsInvisible) {
  // Move every stage-1 decision threshold by `offset` (a comparator offset):
  // the raw codes change, the corrected code does not (within 1 LSB).
  const double offset = GetParam();
  const ad::ErrorCorrection ec(10, 2);
  const double vref = 1.0;
  for (double v = -0.95; v < 0.95; v += 0.01) {
    // Chain with a shifted stage-1 threshold.
    ad::RawConversion raw;
    double x = v;
    for (int i = 0; i < 10; ++i) {
      ad::StageCode d;
      if (i == 0) {
        if (x > vref / 4.0 + offset) {
          d = ad::StageCode::kPlus;
        } else if (x < -vref / 4.0 + offset) {
          d = ad::StageCode::kMinus;
        } else {
          d = ad::StageCode::kZero;
        }
      } else {
        d = ideal_decision(x, vref);
      }
      raw.stage_codes.push_back(d);
      x = 2.0 * x - static_cast<double>(ad::value(d)) * vref;
    }
    const int half_levels = 2;
    int f = 0;
    for (int k = 0; k < 3; ++k) {
      const double th = static_cast<double>(k - half_levels + 1) * vref / half_levels;
      if (x > th) ++f;
    }
    raw.flash_code = static_cast<ad::FlashCode>(f);
    EXPECT_NEAR(ec.correct(raw), ideal_code(v, 12, vref), 1) << "offset " << offset
                                                             << " v " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Offsets, OffsetInjectionSweep,
                         ::testing::Values(-0.24, -0.1, -0.01, 0.01, 0.1, 0.24));
