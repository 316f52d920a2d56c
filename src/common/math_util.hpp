/// \file math_util.hpp
/// Small numeric helpers shared by the DSP and circuit models.
#pragma once

#include <cmath>
#include <cstddef>
#include <numbers>
#include <span>
#include <vector>

#include "common/fastmath.hpp"

namespace adc::common {

/// Chebyshev interpolant of a smooth function on [lo, hi]: fitted once at
/// the degree+1 Chebyshev roots, evaluated by the Clenshaw recurrence. The
/// `fast` fidelity profile uses these as construction-time surrogates for
/// per-sample transcendental chains (e.g. the sampling-switch network);
/// for the smooth circuit curves involved, a degree ~12 fit is accurate to
/// well below the converter's noise floor.
class Chebyshev {
 public:
  Chebyshev() = default;

  /// Interpolate `f` on [lo, hi] with a polynomial of degree `degree`.
  template <typename F>
  [[nodiscard]] static Chebyshev fit(const F& f, double lo, double hi, int degree) {
    Chebyshev c;
    const int n = degree + 1;
    c.mid_ = 0.5 * (hi + lo);
    c.half_ = 0.5 * (hi - lo);
    c.inv_half_ = 1.0 / c.half_;
    std::vector<double> fx(static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
      const double theta = std::numbers::pi * (static_cast<double>(k) + 0.5) /
                           static_cast<double>(n);
      fx[static_cast<std::size_t>(k)] = f(c.mid_ + c.half_ * std::cos(theta));
    }
    c.coef_.resize(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      double s = 0.0;
      for (int k = 0; k < n; ++k) {
        s += fx[static_cast<std::size_t>(k)] *
             std::cos(std::numbers::pi * static_cast<double>(j) *
                      (static_cast<double>(k) + 0.5) / static_cast<double>(n));
      }
      c.coef_[static_cast<std::size_t>(j)] = 2.0 * s / static_cast<double>(n);
    }
    c.coef_[0] *= 0.5;
    return c;
  }

  /// Evaluate at x (callers keep x inside [lo, hi]; outside, the polynomial
  /// extrapolates and accuracy degrades rapidly).
  [[nodiscard]] double operator()(double x) const {
    double out = 0.0;
    fastmath::clenshaw<1>(view(), &x, &out);
    return out;
  }

  /// The coefficients and span as plain data, for fastmath::clenshaw at any
  /// lane width; valid while this object lives unchanged.
  [[nodiscard]] fastmath::ChebyshevView view() const {
    return {coef_.data(), coef_.size(), mid_, inv_half_};
  }

  [[nodiscard]] bool valid() const { return !coef_.empty(); }
  [[nodiscard]] double lo() const { return mid_ - half_; }
  [[nodiscard]] double hi() const { return mid_ + half_; }

 private:
  std::vector<double> coef_;
  double mid_ = 0.0;
  double half_ = 1.0;
  double inv_half_ = 1.0;
};

/// Power ratio to decibels: 10*log10(ratio). `ratio` must be > 0.
[[nodiscard]] double db_from_power_ratio(double ratio);

/// Amplitude ratio to decibels: 20*log10(ratio). `ratio` must be > 0.
[[nodiscard]] double db_from_amplitude_ratio(double ratio);

/// SNDR in dB to effective number of bits: (SNDR - 1.76) / 6.02.
[[nodiscard]] double enob_from_sndr_db(double sndr_db);

/// True when n is a power of two (n >= 1).
[[nodiscard]] bool is_power_of_two(std::size_t n);

/// Arithmetic mean. Empty input returns 0.
[[nodiscard]] double mean(std::span<const double> x);

/// Population variance (divide by N). Empty input returns 0.
[[nodiscard]] double variance(std::span<const double> x);

/// Population standard deviation.
[[nodiscard]] double std_dev(std::span<const double> x);

/// Root-mean-square value. Empty input returns 0.
[[nodiscard]] double rms(std::span<const double> x);

/// Minimum and maximum of a non-empty span.
struct MinMax {
  double min = 0.0;
  double max = 0.0;
};
[[nodiscard]] MinMax min_max(std::span<const double> x);

/// Clamp x into [lo, hi].
[[nodiscard]] constexpr double clamp(double x, double lo, double hi) {
  return x < lo ? lo : (x > hi ? hi : x);
}

}  // namespace adc::common
