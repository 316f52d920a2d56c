/// \file random.hpp
/// Deterministic random-number façade used by every stochastic model.
///
/// All Monte-Carlo behaviour in the library (mismatch draws, thermal noise,
/// jitter, comparator noise) flows through `Rng` so that a single seed makes a
/// whole converter instance reproducible. Independent sub-streams are derived
/// with `child()`, which hash-splits the parent seed: two models never share a
/// stream, so adding noise draws to one model does not perturb another.
#pragma once

#include <cmath>
#include <cstdint>
#include <random>
#include <string_view>

namespace adc::common {

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
  /// One `std::generate_canonical<double, 53>` draw from mt19937_64: with a
  /// 64-bit engine range the template's loop collapses to a single engine
  /// word scaled by 2^-64 (an exact power-of-two scaling, so multiplication
  /// matches the library's division bit for bit), plus the clamp that keeps
  /// the rounded-up top-of-range values below 1.0.
  double canonical() {
    const double r = static_cast<double>(engine_()) * 0x1p-64;
    return r >= 1.0 ? 0x1.fffffffffffffp-1 : r;
  }

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
  std::mt19937_64 engine_;
  double saved_ = 0.0;
  bool saved_available_ = false;
};

}  // namespace adc::common
