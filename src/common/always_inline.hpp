/// \file always_inline.hpp
/// ADC_ALWAYS_INLINE: the linkage rule for code the batch kernels share.
///
/// The batch engine re-compiles its translation units with AVX2 and AVX-512
/// enabled. An ordinary `inline` function used there would be emitted as a
/// weak out-of-line COMDAT copy built with wide instructions — which the
/// linker may then select for *baseline* callers, crashing SSE2 hosts.
/// always_inline leaves no body to leak, at every optimization level
/// (tests/check_kernel_symbols.cmake). For the same reason those headers use
/// the builtins for bit casts, isfinite and infinity: at -O0 the std::
/// spellings are out-of-line weak functions.
#pragma once

#if defined(__GNUC__) || defined(__clang__)
#define ADC_ALWAYS_INLINE [[gnu::always_inline]]
#else
#define ADC_ALWAYS_INLINE
#endif
