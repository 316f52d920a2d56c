/// \file contracts.hpp
/// Debug-build contracts for numerical hot paths.
///
/// Configuration errors throw ConfigError (see error.hpp); the sample-rate hot
/// path must never throw. Instead it states its pre/postconditions with these
/// macros, which compile to nothing in Release and abort with location in
/// Debug. The intended failure mode of this library is a crash at the first
/// non-finite intermediate, not a quietly-wrong ENOB three layers later.
///
///     double Opamp::settle(...) {
///       ADC_EXPECT(std::isfinite(target), "settle: non-finite target");
///       ...
///       ADC_ENSURE(std::isfinite(r.output), "settle: non-finite output");
///     }
///
/// ADC_EXPECT states a precondition, ADC_ENSURE a postcondition; both behave
/// identically, the split is documentation. Neither evaluates its condition
/// when contracts are off, so conditions must be side-effect free.
///
/// Contracts are on when NDEBUG is unset (Debug builds) and can be forced
/// either way with -DADC_ENABLE_CONTRACTS=0/1.
#pragma once

#include <cmath>
#include <span>

#include "common/always_inline.hpp"

#ifndef ADC_ENABLE_CONTRACTS
#ifdef NDEBUG
#define ADC_ENABLE_CONTRACTS 0
#else
#define ADC_ENABLE_CONTRACTS 1
#endif
#endif

namespace adc::common {

/// Backing for the contract macros: report and abort. Not for direct use.
/// Out of line (common/contracts.cpp), so no translation unit — the
/// wide-ISA batch kernels included — carries a copy of its body.
[[noreturn]] void contract_failed(const char* kind, const char* cond, const char* msg,
                                  const char* file, int line) noexcept;

/// True when every element of `xs` is finite (no NaN/Inf crept in).
inline bool all_finite(std::span<const double> xs) {
  for (const double x : xs) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

/// True when `x` lies in the closed interval [lo, hi]. Always inline: the
/// shared fast stage chain states it in the batch kernels' contracts.
ADC_ALWAYS_INLINE inline bool in_closed_range(double x, double lo, double hi) {
  return x >= lo && x <= hi;
}

/// True when `xs` is sorted ascending (non-strict). Used for transfer-curve
/// and sweep-grid postconditions.
inline bool is_nondecreasing(std::span<const double> xs) {
  for (std::size_t i = 1; i < xs.size(); ++i) {
    if (xs[i] < xs[i - 1]) return false;
  }
  return true;
}

}  // namespace adc::common

#if ADC_ENABLE_CONTRACTS
#define ADC_CONTRACT_IMPL(kind, cond, msg)                                        \
  do {                                                                            \
    if (!(cond)) ::adc::common::contract_failed(kind, #cond, msg, __FILE__, __LINE__); \
  } while (false)
/// Precondition: must hold on entry. No-op in Release.
#define ADC_EXPECT(cond, msg) ADC_CONTRACT_IMPL("ADC_EXPECT", cond, msg)
/// Postcondition: must hold on exit. No-op in Release.
#define ADC_ENSURE(cond, msg) ADC_CONTRACT_IMPL("ADC_ENSURE", cond, msg)
#else
#define ADC_EXPECT(cond, msg) static_cast<void>(0)
#define ADC_ENSURE(cond, msg) static_cast<void>(0)
#endif
