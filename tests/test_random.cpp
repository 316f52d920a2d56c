/// Unit tests for the seeded RNG façade.
#include "common/random.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/math_util.hpp"

namespace ac = adc::common;

TEST(Rng, SameSeedSameStream) {
  ac::Rng a(42);
  ac::Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.gaussian(1.0), b.gaussian(1.0));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  ac::Rng a(1);
  ac::Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    // Bitwise comparison: we are counting exact stream collisions.
    const auto xa = std::bit_cast<std::uint64_t>(a.gaussian(1.0));
    const auto xb = std::bit_cast<std::uint64_t>(b.gaussian(1.0));
    if (xa == xb) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, ChildStreamsAreStable) {
  ac::Rng parent(7);
  ac::Rng c1 = parent.child("stage", 3);
  ac::Rng c2 = parent.child("stage", 3);
  EXPECT_EQ(c1.seed(), c2.seed());
  EXPECT_DOUBLE_EQ(c1.gaussian(1.0), c2.gaussian(1.0));
}

TEST(Rng, ChildStreamsAreDistinctByTagAndIndex) {
  ac::Rng parent(7);
  EXPECT_NE(parent.child("stage", 3).seed(), parent.child("stage", 4).seed());
  EXPECT_NE(parent.child("stage", 3).seed(), parent.child("comparator", 3).seed());
  EXPECT_NE(parent.child("stage").seed(), parent.seed());
}

TEST(Rng, ChildIndependentOfParentDrawCount) {
  // Deriving a child must not depend on how many draws the parent made.
  ac::Rng a(99);
  ac::Rng b(99);
  (void)b.gaussian(1.0);
  (void)b.gaussian(1.0);
  EXPECT_EQ(a.child("x").seed(), b.child("x").seed());
}

TEST(Rng, GaussianBitIdenticalToStdNormalDistribution) {
  // The inline Marsaglia-polar fast path must reproduce
  // std::normal_distribution<double> on mt19937_64 bit for bit — converter
  // golden codes (and every seeded Monte-Carlo result recorded before the
  // fast path landed) depend on this exact stream.
  const std::uint64_t seeds[] = {0, 1, 42, 0x5EED2004, 0xFFFFFFFFFFFFFFFFull};
  for (const auto seed : seeds) {
    ac::Rng rng(seed);
    std::mt19937_64 engine(seed);
    std::normal_distribution<double> normal(0.0, 1.0);
    for (int i = 0; i < 10000; ++i) {
      const auto got = std::bit_cast<std::uint64_t>(rng.gaussian(1.0));
      const auto want = std::bit_cast<std::uint64_t>(normal(engine));
      ASSERT_EQ(got, want) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(Rng, GaussianSigmaScalingMatchesStd) {
  // sigma * N(0,1) with the same scaling order the façade has always used.
  ac::Rng rng(777);
  std::mt19937_64 engine(777);
  std::normal_distribution<double> normal(0.0, 1.0);
  for (int i = 0; i < 1000; ++i) {
    const double sigma = 1e-3 * static_cast<double>(i + 1);
    ASSERT_EQ(std::bit_cast<std::uint64_t>(rng.gaussian(sigma)),
              std::bit_cast<std::uint64_t>(sigma * normal(engine)));
  }
}

TEST(Rng, GaussianMoments) {
  ac::Rng rng(2024);
  std::vector<double> draws(200000);
  for (auto& x : draws) x = rng.gaussian(3.0);
  EXPECT_NEAR(ac::mean(draws), 0.0, 0.05);
  EXPECT_NEAR(ac::std_dev(draws), 3.0, 0.05);
}

TEST(Rng, GaussianZeroSigma) {
  ac::Rng rng(5);
  EXPECT_DOUBLE_EQ(rng.gaussian(0.0), 0.0);
}

TEST(Rng, BernoulliFrequency) {
  ac::Rng rng(12);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, IndexBounds) {
  ac::Rng rng(13);
  bool saw_zero = false;
  bool saw_max = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.index(7);
    EXPECT_LT(v, 7u);
    if (v == 0) saw_zero = true;
    if (v == 6) saw_max = true;
  }
  EXPECT_TRUE(saw_zero);
  EXPECT_TRUE(saw_max);
}
