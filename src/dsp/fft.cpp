#include "dsp/fft.hpp"

#include <cmath>
#include <map>
#include <mutex>
#include <numbers>
#include <utility>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"

namespace adc::dsp {

FftPlan::FftPlan(std::size_t n) : n_(n) {
  adc::common::require(adc::common::is_power_of_two(n), "fft: length must be a power of two");

  // Bit-reversal permutation table (the same j-walk the in-place transform
  // used to redo on every call).
  bitrev_.resize(n);
  std::size_t j = 0;
  bitrev_[0] = 0;
  for (std::size_t i = 1; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    bitrev_[i] = static_cast<std::uint32_t>(j);
  }

  // Twiddle table w_[k] = exp(-2*pi*i*k/n), tabulated from cos/sin per entry
  // rather than the multiplicative recurrence (whose rounding error grows
  // with k and with the record length).
  w_.resize(n / 2);
  const double step = -2.0 * std::numbers::pi / static_cast<double>(n);
  for (std::size_t k = 0; k < w_.size(); ++k) {
    const double angle = step * static_cast<double>(k);
    w_[k] = Complex(std::cos(angle), std::sin(angle));
  }

  if (n >= 2) half_ = std::make_shared<const FftPlan>(n / 2);
}

std::shared_ptr<const FftPlan> FftPlan::shared(std::size_t n) {
  static std::mutex mutex;
  // Record lengths come from capture configurations (a handful of powers of
  // two per process), so an ever-growing cache is the right trade.
  static std::map<std::size_t, std::shared_ptr<const FftPlan>> cache;
  {
    const std::lock_guard<std::mutex> lock(mutex);
    const auto it = cache.find(n);
    if (it != cache.end()) return it->second;
  }
  // Build outside the lock: two racing threads at worst build one extra plan
  // and the loser's copy is dropped by emplace.
  auto plan = std::make_shared<const FftPlan>(n);
  const std::lock_guard<std::mutex> lock(mutex);
  return cache.emplace(n, std::move(plan)).first->second;
}

void FftPlan::transform(std::span<Complex> a, bool inverse) const {
  ADC_EXPECT(a.size() == n_, "FftPlan::transform: length does not match the plan");
  for (std::size_t i = 1; i < n_; ++i) {
    const std::size_t j = bitrev_[i];
    if (i < j) std::swap(a[i], a[j]);
  }
  // Butterflies on explicit re/im pairs: std::complex multiplication may
  // fall back to the NaN-propagating __muldc3 helper, which the transform
  // never needs (all twiddles are finite by construction).
  const double conj_sign = inverse ? -1.0 : 1.0;
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t stride = n_ / len;
    for (std::size_t i = 0; i < n_; i += len) {
      const Complex* w = w_.data();
      for (std::size_t k = 0; k < half; ++k, w += stride) {
        const double wr = w->real();
        const double wi = conj_sign * w->imag();
        Complex& lo = a[i + k];
        Complex& hi = a[i + k + half];
        const double vr = hi.real() * wr - hi.imag() * wi;
        const double vi = hi.real() * wi + hi.imag() * wr;
        const double ur = lo.real();
        const double ui = lo.imag();
        lo = Complex(ur + vr, ui + vi);
        hi = Complex(ur - vr, ui - vi);
      }
    }
  }
}

void FftPlan::forward(std::span<Complex> data) const { transform(data, /*inverse=*/false); }

void FftPlan::inverse(std::span<Complex> data) const {
  transform(data, /*inverse=*/true);
  const double inv_n = 1.0 / static_cast<double>(n_);
  for (auto& v : data) v *= inv_n;
}

void FftPlan::forward_real(std::span<const double> x, std::span<Complex> out) const {
  ADC_EXPECT(x.size() == n_ && out.size() == n_,
             "FftPlan::forward_real: length does not match the plan");
  if (n_ == 1) {
    out[0] = Complex(x[0], 0.0);
    return;
  }

  // Pack adjacent real samples into complex points and run the half-length
  // transform: z[j] = x[2j] + i*x[2j+1].
  const std::size_t m = n_ / 2;
  std::vector<Complex> z(m);
  for (std::size_t i = 0; i < m; ++i) z[i] = Complex(x[2 * i], x[2 * i + 1]);
  half_->forward(z);

  // Unpack with the full-length twiddles: with E/O the spectra of the even
  // and odd subsequences, X[k] = E_k + W_n^k O_k and X[k+m] = E_k - W_n^k O_k.
  out[0] = Complex(z[0].real() + z[0].imag(), 0.0);
  out[m] = Complex(z[0].real() - z[0].imag(), 0.0);
  for (std::size_t k = 1; k < m; ++k) {
    const Complex zk = z[k];
    const Complex zmk = std::conj(z[m - k]);
    const double er = 0.5 * (zk.real() + zmk.real());
    const double ei = 0.5 * (zk.imag() + zmk.imag());
    // O_k = (Z_k - conj(Z_{m-k})) / (2i)
    const double orr = 0.5 * (zk.imag() - zmk.imag());
    const double oi = -0.5 * (zk.real() - zmk.real());
    const double wr = w_[k].real();
    const double wi = w_[k].imag();
    const double tr = orr * wr - oi * wi;
    const double ti = orr * wi + oi * wr;
    out[k] = Complex(er + tr, ei + ti);
    out[n_ - k] = Complex(er + tr, -(ei + ti));  // conjugate symmetry of a real input
  }
}

std::vector<Complex> fft_real(std::span<const double> x) {
  ADC_EXPECT(adc::common::all_finite(x), "fft_real: non-finite sample in input record");
  const auto plan = FftPlan::shared(x.size());
  std::vector<Complex> out(x.size());
  plan->forward_real(x, out);
  return out;
}

std::vector<double> power_spectrum(std::span<const double> x) {
  const std::size_t n = x.size();
  auto spec = fft_real(x);
  const std::size_t half = n / 2;
  std::vector<double> power(half + 1);
  const double norm = 1.0 / (static_cast<double>(n) * static_cast<double>(n));
  for (std::size_t k = 0; k <= half; ++k) {
    const double mag2 = std::norm(spec[k]) * norm;
    // Fold the negative-frequency half into bins 1..n/2-1; DC and Nyquist
    // have no mirror.
    power[k] = (k == 0 || k == half) ? mag2 : 2.0 * mag2;
  }
  ADC_ENSURE(adc::common::all_finite(power), "power_spectrum: non-finite bin power");
  return power;
}

}  // namespace adc::dsp
