/// \file test_fast_rng.cpp
/// The `fast` profile's noise contract: statistical equivalence and
/// positional determinism.
///
/// The exact profile's golden-code tests pin *sequences*; the fast profile's
/// contract is positional — draw N is a pure function of (key, stream, N) —
/// so the things to pin are different:
///  * the batched fill and the scalar positional lookup must agree
///    bit-for-bit at every chunking (the batched cipher is a separately
///    vectorized round-major implementation of the same Philox network);
///  * a NoisePlane window regenerated anywhere must reproduce the same
///    draws for the same absolute sample index;
///  * the lane-minor row fill (tile::philox_normal_rows) must write exactly
///    the positions its block list names, each equal to the positional
///    lookup, at every lane count the engine runs;
///  * the elided-block rule must name the comparator-only blocks, and
///    kDrawBound must cover the largest deviate the draw math returns;
///  * the deviates must actually be standard normals (moments + KS), since
///    branch-free Box–Muller replaces the exact profile's polar method;
///  * the polynomial transcendental kernels must track libm to the few-ulp
///    bounds documented in common/fastmath.hpp over their stated domains —
///    including, under fast contract v2, the division-free log and the
///    rsqrt-seeded Newton sqrt that carry the Box–Muller radius.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/counter_rng.hpp"
#include "common/counter_rng_tile.hpp"
#include "common/fastmath.hpp"
#include "common/noise_plane.hpp"
#include "pipeline/fast_chain.hpp"
#include "pipeline/fast_layout.hpp"

namespace {

using adc::common::NoisePlane;
using adc::common::philox4x32;
using adc::common::philox_normal_at;
using adc::common::philox_normal_fill;
using adc::common::tile::BlockList;
namespace fastmath = adc::common::fastmath;
namespace fast_layout = adc::pipeline::fast_layout;

constexpr std::uint64_t kKey = 0x5EED2004u;
constexpr std::uint64_t kStream = 7u;

/// Distance in units-in-the-last-place between two finite doubles of the
/// same sign (monotone bit-pattern trick).
std::uint64_t ulp_distance(double a, double b) {
  auto ordered = [](double x) {
    const auto bits = std::bit_cast<std::int64_t>(x);
    return bits < 0 ? std::numeric_limits<std::int64_t>::min() - bits : bits;
  };
  const std::int64_t da = ordered(a);
  const std::int64_t db = ordered(b);
  return static_cast<std::uint64_t>(da > db ? da - db : db - da);
}

TEST(PhiloxRng, FillMatchesPositionalLookupAtAnyChunking) {
  constexpr std::size_t kTotal = 4096 + 37;  // off the tile boundary
  std::vector<double> whole(kTotal);
  philox_normal_fill(kKey, kStream, 0, whole);

  // Scalar positional lookup: the batched round-major cipher and the
  // reference network must be the same function.
  for (std::size_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(whole[i], philox_normal_at(kKey, kStream, i)) << "index " << i;
  }

  // Refill in odd-sized chunks, including chunks that start mid-block (odd
  // first index) and mid-tile: bit-identical to the single-shot fill.
  for (const std::size_t chunk : {1u, 2u, 3u, 5u, 31u, 64u, 1000u}) {
    std::vector<double> pieces(kTotal);
    for (std::size_t first = 0; first < kTotal; first += chunk) {
      const std::size_t n = std::min(chunk, kTotal - first);
      philox_normal_fill(kKey, kStream, first,
                         std::span<double>(pieces.data() + first, n));
    }
    ASSERT_EQ(pieces, whole) << "chunk " << chunk;
  }
}

TEST(PhiloxRng, StreamsAndKeysAreIndependentAxes) {
  // Changing any coordinate of (key, stream, index) must change the draw —
  // the cipher treats them as independent axes, which is what lets every
  // noise slot own a disjoint stream.
  const double base = philox_normal_at(kKey, kStream, 123);
  EXPECT_NE(base, philox_normal_at(kKey + 1, kStream, 123));
  EXPECT_NE(base, philox_normal_at(kKey, kStream + 1, 123));
  EXPECT_NE(base, philox_normal_at(kKey, kStream, 124));
}

TEST(PhiloxRng, NoisePlaneRegenerationIsBitIdentical) {
  constexpr std::uint32_t kSlots = 37;
  constexpr std::uint64_t kEpoch = 3;
  NoisePlane reference(kKey, kSlots);
  reference.generate(kEpoch, 0, 1000);

  // A window opened anywhere must reproduce the same rows: the plane is a
  // view of one infinite positional sequence, not a stateful generator.
  NoisePlane window(kKey, kSlots);
  for (const std::uint64_t first : {0ull, 1ull, 499ull, 900ull}) {
    window.generate(kEpoch, first, 100);
    for (std::uint64_t s = first; s < first + 100; ++s) {
      const double* a = reference.row(s);
      const double* b = window.row(s);
      for (std::uint32_t k = 0; k < kSlots; ++k) {
        ASSERT_EQ(a[k], b[k]) << "sample " << s << " slot " << k;
      }
    }
  }

  // Epochs are disjoint: a re-capture must not replay the previous capture's
  // noise.
  window.generate(kEpoch + 1, 0, 1);
  EXPECT_NE(window.row(0)[0], reference.row(0)[0]);
}

TEST(PhiloxRng, ChunkedRegenerationAcrossEpochBoundaries) {
  // The batch engine regenerates a plane in kChunkSamples windows and bumps
  // the epoch between captures, interleaving (epoch, window) pairs in
  // whatever order the die-blocks run. Contract: a chunk regenerated after
  // *any* sequence of other (epoch, window) fills — including fills of a
  // different epoch in between — is bit-identical to the one-shot plane of
  // its own epoch. A draw-math kernel with hidden state (or an epoch mixed
  // into anything but the stream coordinate) would break this.
  constexpr std::uint32_t kSlots = 36;
  constexpr std::size_t kRows = 640;  // spans several 128-block tiles
  const std::uint64_t epochs[] = {11, 12};

  NoisePlane ref_a(kKey, kSlots);
  ref_a.generate(epochs[0], 0, kRows);
  std::vector<double> plane_a(ref_a.row(0), ref_a.row(0) + kRows * kSlots);
  NoisePlane ref_b(kKey, kSlots);
  ref_b.generate(epochs[1], 0, kRows);
  std::vector<double> plane_b(ref_b.row(0), ref_b.row(0) + kRows * kSlots);

  // Same positions, adjacent epochs: the planes must be fully decorrelated,
  // not shifted copies.
  std::size_t equal = 0;
  for (std::size_t i = 0; i < plane_a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(plane_a[i]) == std::bit_cast<std::uint64_t>(plane_b[i])) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 4u);

  // Ping-pong chunked regeneration between the two epochs, with window
  // starts chosen to straddle tile boundaries (a tile is 128 blocks = 256
  // deviates; a 36-slot row never aligns with it).
  NoisePlane window(kKey, kSlots);
  for (const std::uint64_t first : {0ull, 1ull, 127ull, 255ull, 256ull, 500ull}) {
    for (int flip = 0; flip < 2; ++flip) {
      const std::uint64_t epoch = epochs[flip];
      const std::vector<double>& plane = (flip == 0) ? plane_a : plane_b;
      window.generate(epoch, first, 100);
      for (std::uint64_t s = first; s < first + 100; ++s) {
        const double* got = window.row(s);
        const double* want = plane.data() + s * kSlots;
        for (std::uint32_t k = 0; k < kSlots; ++k) {
          ASSERT_EQ(got[k], want[k])
              << "epoch " << epoch << " sample " << s << " slot " << k;
        }
      }
    }
  }
}

TEST(PhiloxRng, FirstDrawsArePinned) {
  // Golden regression guard for the fast contract: these exact doubles may
  // only change with an explicit contract bump and a regeneration of the
  // fast golden-code tables (mirrors kGoldenConvert64 for the exact
  // profile). Any change to the cipher, the bits->uniform mapping, or the
  // Box-Muller kernels moves them.
  //
  // Pinned under fast contract v2 (kFastContractVersion == 2): the
  // division-free log/sqrt draw math. The first two deviates moved by 1-2
  // ulp relative to contract v1; the last two happen to round identically.
  const std::vector<double> expected = {
      -2.28277845513356115e-01,
      -2.55481661112267278e-01,
      -1.07492898757829658e+00,
      1.11749836576973705e+00,
  };
  std::vector<double> filled(4);
  philox_normal_fill(kKey, kStream, 0, filled);
  EXPECT_EQ(filled, expected);
}

TEST(PhiloxRng, MomentsMatchStandardNormal) {
  constexpr std::size_t kN = 1u << 20;  // ~1.05e6 draws
  std::vector<double> draws(kN);
  philox_normal_fill(kKey, kStream, 0, draws);

  double mean = 0.0;
  for (const double z : draws) mean += z;
  mean /= static_cast<double>(kN);

  double m2 = 0.0;
  double m3 = 0.0;
  double m4 = 0.0;
  for (const double z : draws) {
    const double d = z - mean;
    const double d2 = d * d;
    m2 += d2;
    m3 += d2 * d;
    m4 += d2 * d2;
  }
  m2 /= static_cast<double>(kN);
  m3 /= static_cast<double>(kN);
  m4 /= static_cast<double>(kN);
  const double skew = m3 / (m2 * std::sqrt(m2));
  const double excess_kurtosis = m4 / (m2 * m2) - 3.0;

  // 5-sigma acceptance bands for N(0,1) sample moments at this N: the test
  // is deterministic (fixed key), the margin documents how close it lands.
  EXPECT_NEAR(mean, 0.0, 5.0 / std::sqrt(static_cast<double>(kN)));
  EXPECT_NEAR(m2, 1.0, 5.0 * std::sqrt(2.0 / static_cast<double>(kN)));
  EXPECT_NEAR(skew, 0.0, 5.0 * std::sqrt(6.0 / static_cast<double>(kN)));
  EXPECT_NEAR(excess_kurtosis, 0.0, 5.0 * std::sqrt(24.0 / static_cast<double>(kN)));
}

TEST(PhiloxRng, KolmogorovSmirnovAgainstNormalCdf) {
  constexpr std::size_t kN = 1u << 20;
  std::vector<double> draws(kN);
  philox_normal_fill(kKey, kStream + 1, 0, draws);
  std::sort(draws.begin(), draws.end());

  // One-sample KS statistic against Phi(x) = erfc(-x/sqrt(2))/2.
  double d_max = 0.0;
  for (std::size_t i = 0; i < kN; ++i) {
    const double cdf = 0.5 * std::erfc(-draws[i] / std::sqrt(2.0));
    const double lo = static_cast<double>(i) / static_cast<double>(kN);
    const double hi = static_cast<double>(i + 1) / static_cast<double>(kN);
    d_max = std::max({d_max, std::abs(cdf - lo), std::abs(cdf - hi)});
  }
  // Critical value at alpha = 0.01 is 1.628/sqrt(N) ~ 1.59e-3. A generator
  // defect (clipped tails, lattice artifacts, a wrong Box-Muller branch)
  // shows up orders of magnitude above this.
  EXPECT_LT(d_max, 1.628 / std::sqrt(static_cast<double>(kN)));
}

TEST(PhiloxRng, TailsAreFullRange) {
  // u1 in (0, 1] gives a largest representable deviate of ~8.57 sigma and
  // excludes log(0); over 2^20 draws the extremes should comfortably exceed
  // 4 sigma (P(miss) < 1e-14) yet stay below the hard ceiling.
  constexpr std::size_t kN = 1u << 20;
  std::vector<double> draws(kN);
  philox_normal_fill(kKey, kStream, 0, draws);
  const auto [lo, hi] = std::minmax_element(draws.begin(), draws.end());
  EXPECT_LT(*lo, -4.0);
  EXPECT_GT(*hi, 4.0);
  EXPECT_GT(*lo, -8.6);
  EXPECT_LT(*hi, 8.6);
  for (const double z : draws) ASSERT_TRUE(std::isfinite(z));
}

// ---------------------------------------------------------------------------
// The lane-minor row fill and the elided blocks.
// ---------------------------------------------------------------------------

/// A NaN whose payload no draw produces: a position still holding it was
/// never written.
double sentinel() { return std::bit_cast<double>(0x7ff8dead0000beefull); }

/// W distinct lane keys with both 32-bit key words in play.
std::vector<std::uint64_t> lane_keys(std::size_t w) {
  std::vector<std::uint64_t> keys;
  for (std::size_t l = 0; l < w; ++l) keys.push_back(kKey * 0x9E3779B97F4A7C15ull + 977 * l);
  return keys;
}

/// One period of the eager blocks of rows of `stages` stages and
/// `flash` flash comparators (what PipelineAdc::eager_blocks lists).
std::vector<std::uint32_t> eager_offsets(std::size_t stages, std::size_t flash) {
  std::vector<std::uint32_t> out;
  const std::size_t slots = fast_layout::slots_per_sample(stages, flash);
  for (std::uint32_t b = 0; b < slots; ++b) {
    if (!fast_layout::block_elided(b, stages, flash)) out.push_back(b);
  }
  return out;
}

/// Is position q's block listed, counted from the fill's first block?
bool listed(std::uint64_t q, std::uint64_t first, const std::vector<std::uint32_t>& offsets,
            std::uint64_t period) {
  const std::uint64_t rel = ((q >> 1) - (first >> 1)) % period;
  return std::find(offsets.begin(), offsets.end(), rel) != offsets.end();
}

template <std::size_t W>
void expect_rows_fill(std::uint64_t first, std::size_t n,
                      const std::vector<std::uint32_t>& offsets, std::uint64_t period) {
  SCOPED_TRACE(testing::Message() << "W=" << W << " first=" << first << " n=" << n
                                  << " period=" << period);
  const auto keys = lane_keys(W);
  std::vector<double> rows(n * W + W, sentinel());  // one spare row past the end
  adc::common::tile::philox_normal_rows<W>(keys.data(), kStream, first, n,
                                           BlockList{offsets.data(), offsets.size(), period},
                                           rows.data());
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t q = first + i;
    const bool want = listed(q, first, offsets, period);
    for (std::size_t l = 0; l < W; ++l) {
      const double got = rows[i * W + l];
      if (want) {
        ASSERT_EQ(got, philox_normal_at(keys[l], kStream, q)) << "position " << q << " lane " << l;
      } else {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(sentinel()))
            << "stray write at position " << q << " lane " << l;
      }
    }
  }
  for (std::size_t l = 0; l < W; ++l) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(rows[n * W + l]),
              std::bit_cast<std::uint64_t>(sentinel()))
        << "write past the end, lane " << l;
  }
}

template <std::size_t W>
void expect_rows_fill_everywhere() {
  // Every block; the eager blocks of the nominal 36-slot row and of two odd
  // widths (33 and 34 slots, whose blocks straddle rows); an arbitrary
  // sparse list. Counts: empty, one position, one row, several tiles,
  // ragged; first positions even and odd.
  const struct {
    std::vector<std::uint32_t> offsets;
    std::uint64_t period;
  } lists[] = {
      {{0}, 1},
      {eager_offsets(10, 3), 36},
      {eager_offsets(9, 3), 33},
      {eager_offsets(8, 7), 34},
      {{1, 4, 5}, 7},
  };
  for (const auto& list : lists) {
    for (const std::uint64_t first : {0ull, 1ull, 66ull, 1001ull}) {
      for (const std::size_t n : {0u, 1u, 2u, 33u, 8u * 34u + 3u, 700u}) {
        expect_rows_fill<W>(first, n, list.offsets, list.period);
      }
    }
  }
}

TEST(PhiloxRows, LaneMinorFillWritesExactlyTheListedPositions) {
  expect_rows_fill_everywhere<1>();
  expect_rows_fill_everywhere<8>();
  expect_rows_fill_everywhere<16>();
  expect_rows_fill_everywhere<32>();
}

TEST(PhiloxRows, EveryBlockAtOneLaneIsTheDenseFill) {
  // NoisePlane::generate's every-slot meaning: the template at W = 1 with
  // every block listed is philox_normal_fill, at odd and even starts.
  for (const std::uint64_t first : {0ull, 3ull, 1000ull}) {
    std::vector<double> dense(777);
    philox_normal_fill(kKey, kStream, first, dense);
    std::vector<double> rows(777);
    const std::uint32_t every = 0;
    adc::common::tile::philox_normal_rows<1>(&kKey, kStream, first, rows.size(),
                                             BlockList{&every, 1, 1}, rows.data());
    EXPECT_EQ(rows, dense) << "first " << first;
  }
}

TEST(PhiloxRows, SparseNoisePlaneHoldsTheEagerDraws) {
  constexpr std::size_t kStages = 9;
  constexpr std::size_t kFlash = 3;
  constexpr std::uint32_t kSlots = 33;
  const auto offsets = eager_offsets(kStages, kFlash);
  NoisePlane dense(kKey, kSlots);
  dense.generate(5, 0, 40);
  NoisePlane sparse(kKey, kSlots);
  sparse.generate(5, 0, 40, BlockList{offsets.data(), offsets.size(), kSlots});
  for (std::uint64_t s = 0; s < 40; ++s) {
    for (std::uint32_t k = 0; k < kSlots; ++k) {
      if (fast_layout::elided(s * kSlots, k, kStages, kFlash)) continue;
      ASSERT_EQ(sparse.row(s)[k], dense.row(s)[k]) << "sample " << s << " slot " << k;
    }
  }
}

TEST(ElidedBlocks, NominalRowElidesTheSevenComparatorPairs) {
  // Blocks (4,5), (10,11), (16,17), (22,23), (28,29): the comparator pairs
  // of stages 0, 2, 4, 6 and 8; (32,33): stage 9's low comparator with
  // flash comparator 0; (34,35): flash comparators 1 and 2.
  std::vector<std::uint64_t> elided;
  for (std::uint64_t b = 0; b < 18; ++b) {
    if (fast_layout::block_elided(b, 10, 3)) elided.push_back(b);
  }
  EXPECT_EQ(elided, (std::vector<std::uint64_t>{2, 5, 8, 11, 14, 16, 17}));
  EXPECT_EQ(eager_offsets(10, 3).size(), 2u * 11u);
}

TEST(ElidedBlocks, SlotRuleAgreesWithTheBlockRuleAtAnyWidth) {
  // The per-slot form the chain evaluates and the per-block form the fill
  // evaluates are one rule on absolute positions, also where blocks
  // straddle rows; and an elided block never holds a non-comparator draw.
  const struct {
    std::size_t stages;
    std::size_t flash;
  } geometries[] = {{10, 3}, {9, 3}, {8, 7}, {1, 1}, {3, 0}, {16, 3}};
  for (const auto& g : geometries) {
    const std::size_t slots = fast_layout::slots_per_sample(g.stages, g.flash);
    for (std::uint64_t q = 0; q < 6 * slots; ++q) {
      const std::uint64_t first = q - q % slots;
      const std::size_t slot = static_cast<std::size_t>(q % slots);
      const bool by_slot = fast_layout::elided(first, slot, g.stages, g.flash);
      EXPECT_EQ(by_slot, fast_layout::block_elided(q >> 1, g.stages, g.flash))
          << g.stages << " stages, position " << q;
      if (by_slot) {
        EXPECT_TRUE(fast_layout::comparator_slot(slot, g.stages, g.flash));
      }
    }
  }
}

TEST(ElidedBlocks, DrawBoundCoversTheLargestDeviate) {
  // u1 = 2^-53 (the smallest the mapping gives) at angle 0: the largest
  // deviate of the v2 draw math.
  adc::common::PhiloxBlock block;
  double z0 = 0.0;
  double z1 = 0.0;
  adc::common::philox_normal_pair(block, z0, z1);
  EXPECT_EQ(z0, 8.5716743486529037);
  EXPECT_EQ(z1, 0.0);
  EXPECT_GE(adc::pipeline::fast_chain::kDrawBound, z0);
  // No other small u1 or angle reaches past the bound: the radius falls as
  // u1 grows and |sin|, |cos| stay within 1.
  for (std::uint64_t m = 0; m < 4096; ++m) {
    for (std::uint64_t a = 0; a < 64; ++a) {
      block.lo = m << 11;
      block.hi = (a * 0x0400000000000000ull) ^ (m * 0x9E3779B97F4A7C15ull);
      adc::common::philox_normal_pair(block, z0, z1);
      ASSERT_LE(std::abs(z0), 8.5716743486529037) << "m " << m << " a " << a;
      ASSERT_LE(std::abs(z1), 8.5716743486529037) << "m " << m << " a " << a;
    }
  }
}

// ---------------------------------------------------------------------------
// Polynomial transcendental kernels vs libm over their documented domains.
// ---------------------------------------------------------------------------

/// Deterministic log-uniform sweep over [lo, hi] (sign preserved).
std::vector<double> log_sweep(double lo, double hi, int points) {
  std::vector<double> xs;
  const double llo = std::log(std::abs(lo));
  const double lhi = std::log(std::abs(hi));
  for (int i = 0; i <= points; ++i) {
    const double t = llo + (lhi - llo) * i / points;
    xs.push_back(std::copysign(std::exp(t), lo));
  }
  return xs;
}

TEST(Fastmath, ExpTracksLibmWithinUlpBound) {
  std::uint64_t worst = 0;
  for (const double mag : log_sweep(1e-6, 700.0, 4000)) {
    for (const double x : {mag, -mag}) {
      worst = std::max(worst, ulp_distance(fastmath::exp_fast(x), std::exp(x)));
    }
  }
  EXPECT_LE(worst, 4u);  // documented ~2 ulp over [-708, 709]
  EXPECT_EQ(fastmath::exp_fast(0.0), 1.0);
  EXPECT_EQ(fastmath::exp_fast(710.0), std::numeric_limits<double>::infinity());
  EXPECT_EQ(fastmath::exp_fast(-746.0), 0.0);
}

TEST(Fastmath, LogTracksLibmWithinUlpBound) {
  std::uint64_t worst = 0;
  for (const double x : log_sweep(1e-300, 1e300, 6000)) {
    worst = std::max(worst, ulp_distance(fastmath::log_fast(x), std::log(x)));
  }
  // Near x = 1 the ulp of log(x) shrinks while the absolute error floor does
  // not; sweep that band separately with an absolute bound.
  for (int i = -1000; i <= 1000; ++i) {
    const double x = 1.0 + i * 1e-3;
    if (x < 0.5) continue;
    EXPECT_NEAR(fastmath::log_fast(x), std::log(x), 4e-16) << "x " << x;
  }
  EXPECT_LE(worst, 4u);
  EXPECT_EQ(fastmath::log_fast(1.0), 0.0);
}

TEST(Fastmath, Log1pTracksLibmWithinUlpBound) {
  for (const double mag : log_sweep(1e-12, 0.2, 2000)) {
    for (const double x : {mag, -mag}) {
      EXPECT_LE(ulp_distance(fastmath::log1p_fast(x), std::log1p(x)), 4u) << "x " << x;
    }
  }
  for (const double x : log_sweep(0.5, 1e6, 1000)) {
    EXPECT_LE(ulp_distance(fastmath::log1p_fast(x), std::log1p(x)), 4u) << "x " << x;
  }
  EXPECT_EQ(fastmath::log1p_fast(0.0), 0.0);
}

TEST(Fastmath, SqrtTracksLibmWithinUlpBound) {
  // The rsqrt-seeded Newton radius of fast contract v2. Sweep the full
  // normal range (the documented domain) plus the Box-Muller radius-squared
  // band [~1e-16, 73.7] the draw pipeline actually feeds it.
  std::uint64_t worst = 0;
  for (const double x : log_sweep(1e-300, 1e300, 6000)) {
    worst = std::max(worst, ulp_distance(fastmath::sqrt_fast(x), std::sqrt(x)));
  }
  for (const double x : log_sweep(1e-16, 73.7, 6000)) {
    worst = std::max(worst, ulp_distance(fastmath::sqrt_fast(x), std::sqrt(x)));
  }
  EXPECT_LE(worst, 2u);  // documented ~1 ulp
  // Anchors the draw pipeline can hit: u1 == 1 gives a -0.0 radius argument
  // (std::sqrt(-0.0) is -0.0, and the Newton form preserves that), and small
  // perfect squares land exactly.
  EXPECT_EQ(fastmath::sqrt_fast(0.0), 0.0);
  EXPECT_TRUE(std::signbit(fastmath::sqrt_fast(-0.0)));
  EXPECT_EQ(fastmath::sqrt_fast(1.0), 1.0);
  EXPECT_EQ(fastmath::sqrt_fast(4.0), 2.0);
}

TEST(Fastmath, PowTracksLibmOverModelExponents) {
  // The simulator's pow sites are junction-capacitance grading exponents:
  // x in (1, ~5), y in (0.3, 0.9). |y ln x| stays tiny, so the composition
  // error is a handful of ulps.
  for (double x = 1.05; x < 5.0; x += 0.07) {
    for (double y = 0.3; y < 0.9; y += 0.05) {
      EXPECT_LE(ulp_distance(fastmath::pow_fast(x, y), std::pow(x, y)), 8u)
          << "x " << x << " y " << y;
    }
  }
}

TEST(Fastmath, SincosTracksLibmOverReductionDomain) {
  // Absolute bound: sin/cos have unit amplitude, and near the zeros the
  // Cody-Waite reduction residue dominates the relative error.
  double worst = 0.0;
  for (const double mag : log_sweep(1e-3, 1e6, 8000)) {
    for (const double x : {mag, -mag}) {
      double s = 0.0;
      double c = 0.0;
      fastmath::sincos_fast(x, s, c);
      worst = std::max({worst, std::abs(s - std::sin(x)), std::abs(c - std::cos(x))});
    }
  }
  EXPECT_LT(worst, 2e-15);  // ~4.5 ulp of 1.0
  double s0 = -1.0;
  double c0 = 0.0;
  fastmath::sincos_fast(0.0, s0, c0);
  EXPECT_EQ(s0, 0.0);
  EXPECT_EQ(c0, 1.0);
}

}  // namespace
