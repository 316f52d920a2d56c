/// \file linear_fit.hpp
/// Test helper: least-squares straight-line fit, for the tests that check a
/// law linear in the conversion rate (the SC bias current of eq. (1), the
/// supply power of Fig. 4). Header-only; no product code fits lines.
#pragma once

#include <cstddef>
#include <span>

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace adc::common {

/// Least-squares straight-line fit y = slope*x + intercept.
struct LinearFit {
  double slope = 0.0;
  double intercept = 0.0;
  /// Coefficient of determination R^2 of the fit.
  double r_squared = 0.0;
};

/// Fit `y` against `x`. Requires at least two points and two distinct x.
[[nodiscard]] inline LinearFit linear_fit(std::span<const double> x, std::span<const double> y) {
  require(x.size() == y.size(), "linear_fit: size mismatch");
  require(x.size() >= 2, "linear_fit: need at least two points");
  const double mx = mean(x);
  const double my = mean(y);
  double sxx = 0.0;
  double sxy = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  require(sxx > 0.0, "linear_fit: degenerate x values");
  LinearFit fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r_squared = syy > 0.0 ? (sxy * sxy) / (sxx * syy) : 1.0;
  return fit;
}

}  // namespace adc::common
