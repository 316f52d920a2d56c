/// \file span_math.hpp
/// Structure-of-arrays ports of the fastmath transcendental kernels.
///
/// The scalar kernels in fastmath.hpp are already straight-line polynomials,
/// but `exp_fast`'s two domain early-outs are *branches*, which stop the
/// loop vectorizer cold. The span variants below compute the in-range body
/// unconditionally on a clamped argument and apply the domain edges as
/// selects afterwards — element-wise bit-identical to the scalar kernel for
/// every input (in-range arguments are untouched by the clamp; out-of-range
/// lanes are overridden by the same ±inf/0 the scalar early-outs return),
/// while the whole loop stays if-convertible.
///
/// Everything is ADC_ALWAYS_INLINE for the same reason as fastmath.hpp: the
/// batch engine re-compiles these bodies in AVX2/AVX-512 translation units,
/// and no out-of-line COMDAT copy may leak to baseline callers.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/fastmath.hpp"

namespace adc::common::spanmath {

/// `out[i] = exp_fast(x[i])`, branch-free. The 2^k scale factor is built
/// with the magic-number trick instead of a scalar int cast: kd is an exact
/// integer double, so `kd + kRoundMagic` holds 2^51 + kd in its low mantissa
/// bits and the biased exponent field is one integer add + shift away —
/// pure integer SIMD on every tier.
ADC_ALWAYS_INLINE inline void exp_span(const double* x, double* out, std::size_t n) {
  constexpr double kInvLn2 = 1.44269504088896340736;
  constexpr double kLn2Hi = 6.93147180369123816490e-01;
  constexpr double kLn2Lo = 1.90821492927058770002e-10;
  // bit_cast(0x1.8p52) == 0x4338000000000000; (u + kScaleBias) << 52
  // reproduces static_cast<uint64_t>(k + 1023) << 52 for |k| <= 1023.
  constexpr std::uint64_t kScaleBias = 1023ull - 0x4338000000000000ull;
  for (std::size_t i = 0; i < n; ++i) {
    const double xi = x[i];
    // Clamp keeps kd in range for the exponent construction; in-range
    // arguments pass through unchanged, so their result is bit-identical to
    // the scalar kernel's post-early-out body.
    const double xc = xi < -709.0 ? -709.0 : (xi > 709.0 ? 709.0 : xi);
    const double kd = fastmath::round_even_small(xc * kInvLn2);
    const double r = (xc - kd * kLn2Hi) - kd * kLn2Lo;
    const double r2 = r * r;
    double pe = 1.0 / 479001600.0;
    double po = 1.0 / 6227020800.0;
    pe = pe * r2 + 1.0 / 3628800.0;
    po = po * r2 + 1.0 / 39916800.0;
    pe = pe * r2 + 1.0 / 40320.0;
    po = po * r2 + 1.0 / 362880.0;
    pe = pe * r2 + 1.0 / 720.0;
    po = po * r2 + 1.0 / 5040.0;
    pe = pe * r2 + 1.0 / 24.0;
    po = po * r2 + 1.0 / 120.0;
    pe = pe * r2 + 1.0 / 2.0;
    po = po * r2 + 1.0 / 6.0;
    pe = pe * r2 + 1.0;
    po = po * r2 + 1.0;
    const double p = pe + r * po;
    const std::uint64_t u = __builtin_bit_cast(std::uint64_t, kd + fastmath::kRoundMagic);
    const auto scale = __builtin_bit_cast(double, (u + kScaleBias) << 52);
    double res = p * scale;
    res = xi > 709.0 ? __builtin_inf() : res;
    res = xi < -708.0 ? 0.0 : res;
    out[i] = res;
  }
}

}  // namespace adc::common::spanmath
