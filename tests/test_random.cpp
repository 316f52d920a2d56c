/// Unit tests for the seeded RNG façade.
#include "common/random.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
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

// --- The in-house MT19937-64 ------------------------------------------------

constexpr std::uint64_t kParitySeeds[] = {0, 1, 42, 0x5EED2004, 0xFFFFFFFFFFFFFFFFull};

TEST(MersenneTwister64, WordsEqualStdMt19937_64OverThreeGenerations) {
  for (const auto seed : kParitySeeds) {
    ac::MersenneTwister64 engine(seed);
    std::mt19937_64 reference(seed);
    for (int i = 0; i < 3 * 312 + 100; ++i) {
      ASSERT_EQ(engine(), reference()) << "seed " << seed << " word " << i;
    }
  }
}

TEST(Rng, CopyContinuesLikeTheOriginal) {
  // Copies taken before any draw, inside the on-demand first generation, at
  // its completion (word 156) and around the first full twist (word 312).
  // index(2^20) takes one engine word per draw (the rejection chance is
  // 2^-44), so `drawn` counts engine words. A copy, and an assignment over
  // a generator holding a spare deviate, continue the original's stream.
  for (const int drawn : {0, 1, 155, 156, 157, 311, 312, 313}) {
    ac::Rng rng(0x5EED2004);
    std::mt19937_64 engine(0x5EED2004);
    std::uniform_int_distribution<std::uint64_t> uniform(0, (1u << 20) - 1);
    for (int i = 0; i < drawn; ++i) ASSERT_EQ(rng.index(1u << 20), uniform(engine));
    ac::Rng copy = rng;
    ac::Rng assigned(7);
    (void)assigned.gaussian(1.0);
    assigned = rng;
    for (int i = 0; i < 700; ++i) {
      const auto want = std::bit_cast<std::uint64_t>(rng.gaussian(1.0));
      ASSERT_EQ(std::bit_cast<std::uint64_t>(copy.gaussian(1.0)), want)
          << "copy after " << drawn << " draws, deviate " << i;
      ASSERT_EQ(std::bit_cast<std::uint64_t>(assigned.gaussian(1.0)), want)
          << "assignment after " << drawn << " draws, deviate " << i;
    }
  }
}

TEST(Rng, IndexAndBernoulliEqualStdDistributions) {
  for (const auto seed : kParitySeeds) {
    ac::Rng rng(seed);
    std::mt19937_64 engine(seed);
    for (int i = 0; i < 2000; ++i) {
      // Ranges that take the library's one-word, rejection and full-width
      // paths, interleaved with Bernoulli draws that read one word each.
      const std::uint64_t n = (i % 3 == 0)   ? 7
                              : (i % 3 == 1) ? (std::uint64_t{1} << 63) + 12345
                                             : 1000003;
      std::uniform_int_distribution<std::uint64_t> uniform(0, n - 1);
      ASSERT_EQ(rng.index(n), uniform(engine)) << "seed " << seed << " draw " << i;
      const double p = 0.05 + 0.9 * static_cast<double>(i % 10) / 9.0;
      std::bernoulli_distribution coin(p);
      ASSERT_EQ(rng.bernoulli(p), coin(engine)) << "seed " << seed << " draw " << i;
    }
  }
}

TEST(Rng, ChildThatNeverDrawsReportsItsSeed) {
  // The fast profile keys its Philox noise on a child's seed and never
  // draws from that child's engine; the seed must not need a draw.
  const ac::Rng parent(2004);
  const ac::Rng child = parent.child("conversion-noise");
  const ac::Rng copy = child;
  EXPECT_EQ(copy.seed(), child.seed());
  ac::Rng drawn = parent.child("conversion-noise");
  (void)drawn.gaussian(1.0);
  EXPECT_EQ(drawn.seed(), child.seed());
  ac::Rng fresh(child.seed());
  ac::Rng from_copy = copy;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(from_copy.gaussian(1.0)),
            std::bit_cast<std::uint64_t>(fresh.gaussian(1.0)));
}

/// A URBG that returns one fixed word: std::generate_canonical's reference
/// result for that word.
struct FixedWord {
  using result_type = std::uint64_t;
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }
  result_type word;
  result_type operator()() const { return word; }
};

TEST(Rng, CanonicalDoubleEqualsGenerateCanonicalOnRoundingEdges) {
  // Words that round exactly, ties to even both ways at the top half's
  // 2^11 spacing, round-ups into the next binade, and the clamp below 1.0.
  constexpr std::uint64_t kTop = std::uint64_t{1} << 63;
  std::vector<std::uint64_t> words = {0,
                                      1,
                                      0xFFFFFFFFull,
                                      0x100000000ull,
                                      (std::uint64_t{1} << 53) - 1,
                                      (std::uint64_t{1} << 53) + 1,
                                      (std::uint64_t{1} << 54) + 2,
                                      (std::uint64_t{1} << 54) + 6,
                                      kTop - 1,
                                      kTop,
                                      kTop + (1u << 10),
                                      kTop + (1u << 10) + 1,
                                      kTop + 3 * (1u << 10),
                                      kTop + (1u << 11) - 1,
                                      0xFFFFFFFFFFFFF3FFull,
                                      0xFFFFFFFFFFFFFBFFull,
                                      0xFFFFFFFFFFFFFC00ull,
                                      0xFFFFFFFFFFFFFFFFull};
  std::mt19937_64 engine(0x5EED2004);
  for (int i = 0; i < 100000; ++i) words.push_back(engine());
  for (const auto word : words) {
    FixedWord fixed{word};
    ASSERT_EQ(std::bit_cast<std::uint64_t>(ac::canonical_double(word)),
              std::bit_cast<std::uint64_t>(std::generate_canonical<double, 53>(fixed)))
        << "word " << word;
  }
}
