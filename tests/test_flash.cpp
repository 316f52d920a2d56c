/// Unit tests for the back-end flash converter.
#include "pipeline/flash.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "common/random.hpp"

namespace ap = adc::pipeline;

namespace {

adc::analog::ComparatorSpec clean_cmp() {
  adc::analog::ComparatorSpec s;
  s.sigma_offset = 0.0;
  s.noise_rms = 0.0;
  s.metastable_window = 0.0;
  return s;
}

/// Noise-free decision at the nominal thresholds.
int ideal_quantize(const ap::FlashConverter& flash, double v) {
  int count = 0;
  for (std::size_t k = 0; k < flash.comparator_count(); ++k) {
    if (v > flash.nominal_threshold(k)) ++count;
  }
  return count;
}

}  // namespace

TEST(FlashConverter, TwoBitThresholds) {
  adc::common::Rng rng(1);
  ap::FlashConverter flash(2, clean_cmp(), 1.0, rng);
  EXPECT_EQ(flash.bits(), 2);
  EXPECT_EQ(flash.comparator_count(), 3u);
  EXPECT_DOUBLE_EQ(flash.nominal_threshold(0), -0.5);
  EXPECT_DOUBLE_EQ(flash.nominal_threshold(1), 0.0);
  EXPECT_DOUBLE_EQ(flash.nominal_threshold(2), 0.5);
}

TEST(FlashConverter, QuantizesAllSegments) {
  adc::common::Rng rng(2);
  ap::FlashConverter flash(2, clean_cmp(), 1.0, rng);
  EXPECT_EQ(flash.quantize(-0.75, 1.0), 0);
  EXPECT_EQ(flash.quantize(-0.25, 1.0), 1);
  EXPECT_EQ(flash.quantize(0.25, 1.0), 2);
  EXPECT_EQ(flash.quantize(0.75, 1.0), 3);
}

TEST(FlashConverter, IdealMatchesNoisyWhenClean) {
  adc::common::Rng rng(3);
  ap::FlashConverter flash(2, clean_cmp(), 1.0, rng);
  for (double v = -0.95; v <= 0.95; v += 0.01) {
    EXPECT_EQ(flash.quantize(v, 1.0), ideal_quantize(flash, v)) << v;
  }
}

TEST(FlashConverter, ThresholdsTrackReference) {
  adc::common::Rng rng(4);
  ap::FlashConverter flash(2, clean_cmp(), 1.0, rng);
  // With a 10% low reference, the 0.5 threshold moves to 0.45.
  EXPECT_EQ(flash.quantize(0.47, 0.9), 3);
  EXPECT_EQ(flash.quantize(0.47, 1.0), 2);
}

TEST(FlashConverter, OffsetsMoveEdges) {
  auto spec = clean_cmp();
  spec.sigma_offset = 50e-3;
  adc::common::Rng rng(5);
  ap::FlashConverter flash(2, spec, 1.0, rng);
  // Some input near a nominal edge decides differently from ideal.
  int diffs = 0;
  for (double v = -0.95; v <= 0.95; v += 0.001) {
    if (flash.quantize(v, 1.0) != ideal_quantize(flash, v)) ++diffs;
  }
  EXPECT_GT(diffs, 0);
  EXPECT_LT(diffs, 400);  // offsets are tens of mV, not the whole range
}

TEST(FlashConverter, ThreeBitGeometry) {
  adc::common::Rng rng(6);
  ap::FlashConverter flash(3, clean_cmp(), 1.0, rng);
  EXPECT_EQ(flash.comparator_count(), 7u);
  EXPECT_DOUBLE_EQ(flash.nominal_threshold(0), -0.75);
  EXPECT_DOUBLE_EQ(flash.nominal_threshold(6), 0.75);
  EXPECT_EQ(flash.quantize(0.99, 1.0), 7);
  EXPECT_EQ(flash.quantize(-0.99, 1.0), 0);
}

TEST(FlashConverter, InvalidConfigThrows) {
  adc::common::Rng rng(7);
  EXPECT_THROW(ap::FlashConverter(0, clean_cmp(), 1.0, rng), adc::common::ConfigError);
  EXPECT_THROW(ap::FlashConverter(5, clean_cmp(), 1.0, rng), adc::common::ConfigError);
  EXPECT_THROW(ap::FlashConverter(2, clean_cmp(), -1.0, rng), adc::common::ConfigError);
}
