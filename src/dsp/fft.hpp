/// \file fft.hpp
/// Radix-2 iterative FFT with cached plans, implemented from scratch for the
/// measurement bench.
///
/// The spectral tests in the paper (Figs. 5, 6 and the Table I dynamic
/// metrics) are single-tone coherent captures; a power-of-two radix-2
/// transform with double precision is exactly what an ADC characterization
/// bench uses. Forward transform is unnormalized; the inverse divides by N so
/// that inverse(forward(x)) == x.
///
/// A sweep reruns the same record length ~15 times (one capture per rate or
/// input-frequency point), so the setup work — bit-reversal permutation and
/// twiddle factors — is hoisted into an `FftPlan` that is computed once per
/// length and shared process-wide through a thread-safe cache. The twiddles
/// are tabulated directly from cos/sin instead of the classic `w *= wlen`
/// recurrence, whose rounding error accumulates over a 65536-point pass.
/// Real-input transforms run as a half-length complex FFT plus an O(n)
/// unpacking pass (the standard packing trick), halving both work and memory
/// traffic.
#pragma once

#include <complex>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace adc::dsp {

using Complex = std::complex<double>;

/// Precomputed tables for one power-of-two transform length. Plans are
/// immutable after construction and safe to share between threads; get one
/// from `FftPlan::shared()` (cached) or construct directly (uncached).
class FftPlan {
 public:
  /// Build the tables for length `n` (power of two >= 1).
  explicit FftPlan(std::size_t n);

  /// The process-wide cached plan for length `n`. The first request for a
  /// length pays the table construction; later requests (the other ~14
  /// captures of a sweep, any thread) reuse it.
  [[nodiscard]] static std::shared_ptr<const FftPlan> shared(std::size_t n);

  [[nodiscard]] std::size_t size() const { return n_; }

  /// In-place forward transform of `data` (`data.size() == size()`).
  void forward(std::span<Complex> data) const;

  /// In-place inverse transform, normalized by 1/N.
  void inverse(std::span<Complex> data) const;

  /// Forward transform of the real sequence `x` (`x.size() == size()`) into
  /// the full complex spectrum of length n, using a half-length complex
  /// transform internally. `out.size()` must equal `size()`.
  void forward_real(std::span<const double> x, std::span<Complex> out) const;

 private:
  void transform(std::span<Complex> a, bool inverse) const;

  std::size_t n_;
  /// Bit-reversal permutation: for each i, the index it swaps with.
  std::vector<std::uint32_t> bitrev_;
  /// Twiddle table: w_[k] = exp(-2*pi*i*k/n) for k in [0, n/2). Stage `len`
  /// of the transform reads it with stride n/len.
  std::vector<Complex> w_;
  /// The half-length plan backing `forward_real` (null for n < 2).
  std::shared_ptr<const FftPlan> half_;
};

/// Forward FFT of a real sequence. Returns the full complex spectrum of
/// length n (power of two required).
[[nodiscard]] std::vector<Complex> fft_real(std::span<const double> x);

/// One-sided magnitude-squared spectrum of a real sequence: bins 0..n/2
/// inclusive. Bin k holds |X_k|^2 * (k in {0, n/2} ? 1 : 2) / n^2, i.e. the
/// power of the corresponding real sinusoid so that a full-scale coherent
/// tone of amplitude A lands at A^2/2 regardless of n.
[[nodiscard]] std::vector<double> power_spectrum(std::span<const double> x);

}  // namespace adc::dsp
