/// Unit tests for the delay-alignment register model.
#include "digital/alignment.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace ad = adc::digital;

namespace {

ad::RawConversion tagged(int num_stages, int tag) {
  ad::RawConversion raw;
  raw.stage_codes.assign(static_cast<std::size_t>(num_stages), ad::StageCode::kZero);
  raw.flash_code = static_cast<ad::FlashCode>(tag & 0x3);
  // Encode the tag in the first stage codes so ordering is observable.
  raw.stage_codes[0] = static_cast<ad::StageCode>((tag % 3) - 1);
  return raw;
}

}  // namespace

TEST(DelayAlignment, LatencyForPaperGeometry) {
  ad::DelayAlignment align(10);
  // Ten 1.5-bit stages + flash resolve by half-clock 2n+11; the output
  // registers on full clock n+6.
  EXPECT_EQ(align.latency_cycles(), 6);
}

TEST(DelayAlignment, PipelineFillThenStream) {
  ad::DelayAlignment align(10);
  int produced = 0;
  for (int k = 0; k < 20; ++k) {
    auto out = align.push(tagged(10, k));
    if (k < align.latency_cycles()) {
      EXPECT_FALSE(out.has_value()) << k;
    } else {
      ASSERT_TRUE(out.has_value()) << k;
      ++produced;
    }
  }
  EXPECT_EQ(produced, 20 - align.latency_cycles());
}

TEST(DelayAlignment, OrderPreserved) {
  ad::DelayAlignment align(10);
  std::vector<int> seen;
  for (int k = 0; k < 30; ++k) {
    if (auto out = align.push(tagged(10, k))) {
      seen.push_back(static_cast<int>(out->flash_code));
    }
  }
  while (auto out = align.flush()) {
    seen.push_back(static_cast<int>(out->flash_code));
  }
  ASSERT_EQ(seen.size(), 30u);
  for (int k = 0; k < 30; ++k) EXPECT_EQ(seen[static_cast<std::size_t>(k)], k & 0x3);
}

TEST(DelayAlignment, FlushDrainsEverything) {
  ad::DelayAlignment align(10);
  for (int k = 0; k < 4; ++k) (void)align.push(tagged(10, k));
  int drained = 0;
  while (align.flush()) ++drained;
  EXPECT_EQ(drained, 4);
  EXPECT_FALSE(align.flush().has_value());
}

TEST(DelayAlignment, ResetClearsRegisters) {
  ad::DelayAlignment align(10);
  for (int k = 0; k < 5; ++k) (void)align.push(tagged(10, k));
  align.reset();
  EXPECT_FALSE(align.flush().has_value());
  // After reset the fill period starts over.
  EXPECT_FALSE(align.push(tagged(10, 0)).has_value());
}

TEST(DelayAlignment, ShortPipeline) {
  ad::DelayAlignment align(2);
  EXPECT_EQ(align.latency_cycles(), (2 + 2 + 1) / 2);
  EXPECT_THROW((void)align.push(tagged(3, 0)), adc::common::ConfigError);
}

TEST(DelayAlignment, InvalidConstruction) {
  EXPECT_THROW(ad::DelayAlignment(0), adc::common::ConfigError);
}
