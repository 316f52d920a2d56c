#include "dsp/window.hpp"

#include <cmath>
#include <map>
#include <mutex>
#include <numbers>
#include <utility>

#include "common/error.hpp"

namespace adc::dsp {

std::vector<double> make_window(WindowType type, std::size_t n) {
  adc::common::require(n >= 1, "make_window: length must be >= 1");
  std::vector<double> w(n, 1.0);
  const double two_pi = 2.0 * std::numbers::pi;
  switch (type) {
    case WindowType::kRectangular:
      break;
    case WindowType::kHann:
      for (std::size_t i = 0; i < n; ++i) {
        const double x = two_pi * static_cast<double>(i) / static_cast<double>(n);
        w[i] = 0.5 - 0.5 * std::cos(x);
      }
      break;
    case WindowType::kBlackmanHarris4: {
      constexpr double a0 = 0.35875;
      constexpr double a1 = 0.48829;
      constexpr double a2 = 0.14128;
      constexpr double a3 = 0.01168;
      for (std::size_t i = 0; i < n; ++i) {
        const double x = two_pi * static_cast<double>(i) / static_cast<double>(n);
        w[i] = a0 - a1 * std::cos(x) + a2 * std::cos(2.0 * x) - a3 * std::cos(3.0 * x);
      }
      break;
    }
  }
  return w;
}

std::shared_ptr<const WindowTable> shared_window(WindowType type, std::size_t n) {
  static std::mutex mutex;
  static std::map<std::pair<WindowType, std::size_t>, std::shared_ptr<const WindowTable>> cache;
  const auto key = std::make_pair(type, n);
  {
    const std::lock_guard<std::mutex> lock(mutex);
    const auto it = cache.find(key);
    if (it != cache.end()) return it->second;
  }
  auto table = std::make_shared<WindowTable>();
  table->coeff = make_window(type, n);
  table->coherent_gain = coherent_gain(table->coeff);
  table->noise_gain = noise_gain(table->coeff);
  const std::lock_guard<std::mutex> lock(mutex);
  return cache.emplace(key, std::move(table)).first->second;
}

double coherent_gain(std::span<const double> window) {
  adc::common::require(!window.empty(), "coherent_gain: empty window");
  double s = 0.0;
  for (double v : window) s += v;
  return s / static_cast<double>(window.size());
}

double noise_gain(std::span<const double> window) {
  adc::common::require(!window.empty(), "noise_gain: empty window");
  double s = 0.0;
  for (double v : window) s += v * v;
  return s / static_cast<double>(window.size());
}

double enbw_bins(std::span<const double> window) {
  double s1 = 0.0;
  double s2 = 0.0;
  for (double v : window) {
    s1 += v;
    s2 += v * v;
  }
  adc::common::require(std::abs(s1) > 0.0, "enbw_bins: zero-sum window");
  return static_cast<double>(window.size()) * s2 / (s1 * s1);
}

std::size_t leakage_span_bins(WindowType type) {
  switch (type) {
    case WindowType::kRectangular: return 0;  // coherent capture: no leakage
    case WindowType::kHann: return 2;
    case WindowType::kBlackmanHarris4: return 4;
  }
  return 0;
}

void apply_window(std::span<double> x, std::span<const double> window) {
  adc::common::require(x.size() == window.size(), "apply_window: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) x[i] *= window[i];
}

}  // namespace adc::dsp
