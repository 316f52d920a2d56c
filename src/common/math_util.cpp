#include "common/math_util.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace adc::common {

double db_from_power_ratio(double ratio) { return 10.0 * std::log10(ratio); }

double db_from_amplitude_ratio(double ratio) { return 20.0 * std::log10(ratio); }

double enob_from_sndr_db(double sndr_db) { return (sndr_db - 1.76) / 6.02; }

bool is_power_of_two(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

double mean(std::span<const double> x) {
  if (x.empty()) return 0.0;
  double s = 0.0;
  for (double v : x) s += v;
  return s / static_cast<double>(x.size());
}

double variance(std::span<const double> x) {
  if (x.empty()) return 0.0;
  const double m = mean(x);
  double s = 0.0;
  for (double v : x) s += (v - m) * (v - m);
  return s / static_cast<double>(x.size());
}

double std_dev(std::span<const double> x) { return std::sqrt(variance(x)); }

double rms(std::span<const double> x) {
  if (x.empty()) return 0.0;
  double s = 0.0;
  for (double v : x) s += v * v;
  return std::sqrt(s / static_cast<double>(x.size()));
}

MinMax min_max(std::span<const double> x) {
  require(!x.empty(), "min_max: empty input");
  auto [lo, hi] = std::minmax_element(x.begin(), x.end());
  return {*lo, *hi};
}

LinearFit linear_fit(std::span<const double> x, std::span<const double> y) {
  require(x.size() == y.size(), "linear_fit: size mismatch");
  require(x.size() >= 2, "linear_fit: need at least two points");
  const auto n = static_cast<double>(x.size());
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
  (void)n;
  return fit;
}

}  // namespace adc::common
