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

}  // namespace adc::common
