/// \file random.hpp
/// Deterministic random-number façade used by every stochastic model.
///
/// All Monte-Carlo behaviour in the library (mismatch draws, thermal noise,
/// jitter, comparator noise) flows through `Rng` so that a single seed makes a
/// whole converter instance reproducible. Independent sub-streams are derived
/// with `child()`, which hash-splits the parent seed: two models never share a
/// stream, so adding noise draws to one model does not perturb another.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace adc::common {

/// MT19937-64 that returns the same 64-bit words as `std::mt19937_64` for
/// every seed and draw index, and does only the work its draws need.
///
/// - The constructor stores the seed. A generator that never draws costs
///   nothing more.
/// - Word k of the first generation is the twist of seed words k, k+1 and
///   k+156 only, so words 0..155 are twisted in place one at a time as they
///   are drawn, and the seed words are computed only as far as that needs.
///   Drawing word 156 completes the seed and twists words 156..311 exactly
///   as the standard pass does.
/// - Later generations run the standard full twist, with the conditional
///   `(y & 1) ? a : 0` written as a mask so the loop has no data-dependent
///   branch.
///
/// Copies copy only the state words computed so far. Satisfies
/// UniformRandomBitGenerator, so the `std::` distributions accept it.
class MersenneTwister64 {
 public:
  using result_type = std::uint64_t;

  explicit MersenneTwister64(result_type seed) { x_[0] = seed; }
  MersenneTwister64(const MersenneTwister64& other) { *this = other; }
  MersenneTwister64& operator=(const MersenneTwister64& other) {
    if (this == &other) return *this;
    std::copy_n(other.x_.begin(), other.seeded_, x_.begin());
    next_ = other.next_;
    ready_ = other.ready_;
    seeded_ = other.seeded_;
    return *this;
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// The next tempered word.
  result_type operator()() {
    if (next_ >= ready_) refill();
    result_type z = x_[next_++];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    return z;
  }

 private:
  static constexpr std::size_t kN = 312;  ///< state words
  static constexpr std::size_t kM = 156;  ///< twist offset

  /// Make word next_ drawable: twist the next first-generation word (or,
  /// at word kN - kM, the rest of the first generation), or run a full
  /// twist once the generation is used up.
  void refill();

  /// State words. [0, ready_) are the current generation's twisted words
  /// and [ready_, seeded_) seed words; words from seeded_ on are unwritten
  /// and never read, so the constructor leaves them uninitialized.
  std::array<result_type, kN> x_;
  std::size_t next_ = 0;    ///< index of the next word to draw
  std::size_t ready_ = 0;   ///< words of the current generation twisted so far
  std::size_t seeded_ = 1;  ///< seed words computed so far (word 0 = the seed)
};

/// `std::generate_canonical<double, 53>` of one 64-bit engine word, bit for
/// bit. With a 64-bit engine range the template's loop collapses to the word
/// scaled by 2^-64 (an exact power-of-two scaling, so multiplication matches
/// the library's division), plus the clamp that keeps the rounded-up
/// top-of-range values below 1.0. The word is converted as two exact 32-bit
/// halves whose sum is rounded once, which is the correctly rounded value of
/// the whole word: the same double as the unsigned conversion, without the
/// branch on the word's top bit that x86-64 compilers emit for it.
inline double canonical_double(std::uint64_t word) {
  const double high = static_cast<double>(static_cast<std::int64_t>(word >> 32));
  const double low = static_cast<double>(static_cast<std::int64_t>(word & 0xFFFFFFFFu));
  const double r = (high * 0x1p32 + low) * 0x1p-64;
  return r >= 1.0 ? 0x1.fffffffffffffp-1 : r;
}

/// Seeded random-number generator with named sub-stream derivation.
class Rng {
 public:
  /// Construct from a 64-bit seed.
  explicit Rng(std::uint64_t seed);

  /// Derive an independent child generator. The child seed is a hash of the
  /// parent seed, the tag and the index, so `child("stage", 3)` is stable
  /// across runs and distinct from `child("stage", 4)` and `child("cmp", 3)`.
  [[nodiscard]] Rng child(std::string_view tag, std::uint64_t index = 0) const;

  /// Standard-normal draw scaled by `sigma` (mean zero).
  ///
  /// Implemented inline as the Marsaglia polar method with the exact
  /// floating-point operation sequence of libstdc++'s
  /// `std::normal_distribution<double>` (including its spare-value caching
  /// and the `generate_canonical` clamp), so the produced stream is
  /// bit-identical to the `std::normal_distribution` this class used through
  /// PR 2 — pinned by a regression test. Inlining the draw removes the
  /// out-of-line distribution call from the conversion hot path, where ~32
  /// draws per sample make the RNG roughly half the per-sample cost.
  double gaussian(double sigma) { return sigma * next_normal(); }

  /// Bernoulli draw with probability `p` of true.
  bool bernoulli(double p);

  /// Uniform integer in [0, n).
  std::uint64_t index(std::uint64_t n);

  /// The seed this generator was constructed with.
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  /// One `std::generate_canonical<double, 53>` draw from mt19937_64.
  double canonical() { return canonical_double(engine_()); }

  /// Standard-normal draw: Marsaglia polar, caching the spare deviate
  /// exactly like std::normal_distribution. The trailing `+ 0.0` reproduces
  /// the distribution's affine step (`ret * stddev + mean` with stddev 1,
  /// mean 0), which maps -0.0 to +0.0 in the r2 == 1.0 corner.
  double next_normal() {
    if (saved_available_) {
      saved_available_ = false;
      return saved_ + 0.0;
    }
    double x = 0.0;
    double y = 0.0;
    double r2 = 0.0;
    do {
      x = 2.0 * canonical() - 1.0;
      y = 2.0 * canonical() - 1.0;
      r2 = x * x + y * y;
      // r2 is a sum of squares, so `<= 0.0` is exactly the library's
      // `== 0.0` rejection without tripping -Wfloat-equal.
    } while (r2 > 1.0 || r2 <= 0.0);
    const double mult = std::sqrt(-2.0 * std::log(r2) / r2);
    saved_ = x * mult;
    saved_available_ = true;
    return y * mult + 0.0;
  }

  std::uint64_t seed_;
  MersenneTwister64 engine_;
  double saved_ = 0.0;
  bool saved_available_ = false;
};

}  // namespace adc::common
