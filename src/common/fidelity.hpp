/// \file fidelity.hpp
/// The fidelity-profile axis of the simulator.
///
/// A profile names a *determinism contract*, not an accuracy knob:
///
///  * `kExact` — the original bit-identity contract. Every floating-point
///    operation and every RNG draw in program order is observable behavior;
///    `tests/test_golden_codes.cpp` pins the exact output codes of the
///    characterized nominal die. Noise draws come sequentially from the
///    Marsaglia-polar `Rng` facade (bit-identical to libstdc++'s
///    `std::normal_distribution`), and transcendentals are glibc libm.
///
///  * `kFast` — an equally deterministic contract with its *own* golden
///    vectors (`tests/test_golden_codes_fast.cpp`). Per-sample noise draws
///    come from a counter-based Philox generator through a branch-free
///    Box–Muller transform, pre-generated as contiguous *noise planes*
///    indexed by `(sample, draw_slot)` — determinism is positional, not
///    sequential — and the hot transcendentals route through the
///    SIMD-friendly polynomial kernels of `common/fastmath.hpp`. The
///    per-sample quantizer is one stage chain (`pipeline/fast_chain.hpp`):
///    `PipelineAdc` runs it one die at a time and the batch engine
///    (`src/batch/`) W dies at a time, so both honor the contract with the
///    same code rather than with two copies kept equal by tests.
///
/// Construction-time Monte-Carlo draws (capacitor mismatch, comparator
/// offsets, reference level errors, ...) always use the exact `Rng` facade
/// in both profiles, so a `(design, seed)` pair fabricates the *same die*
/// under either profile; only the per-sample noise stream and the rounding
/// of the per-sample math differ. That is what makes the cross-profile
/// physics-parity test (ENOB/SNDR/THD/DNL/INL within measurement noise)
/// meaningful.
///
/// See docs/PERFORMANCE.md for the two-contract table.
#pragma once

#include <cstdint>
#include <string_view>

namespace adc::common {

/// Which determinism contract the per-sample simulation kernel honors.
enum class FidelityProfile {
  kExact,  ///< bit-identity contract (sequential polar RNG, libm)
  kFast,   ///< positional-determinism contract (counter RNG, fastmath)
};

/// Version of the *fast*-profile determinism contract: the pinned draw math
/// behind every `kFast` deviate and transcendental. Bump whenever the draw
/// math, the fast transcendentals or the stage chain change their output
/// bits (the exact profile has no version — its contract *is* bit-identity
/// with the original implementation).
///
/// The scenario engine folds this constant into the golden-code fingerprint
/// (src/scenario/hash.cpp), so a contract bump retires every cached fast
/// result atomically: entries written under different contract versions can
/// never cross-pollinate, even if the regenerated codes happened to collide.
///
/// History:
///   v1 — PR 5 contract: Philox4x32-10 + branch-free Box–Muller with
///        artanh-series log ((m-1)/(m+1) quotient) and std::sqrt radius.
///   v2 — division-free draw math: minimax ln(1+t) polynomial on the
///        mantissa split, rsqrt-seeded Newton–Raphson radius. Same positional
///        indexing (key, epoch, sample, slot); deviates differ at the last
///        few ulp.
inline constexpr std::uint64_t kFastContractVersion = 2;

/// Spelling used in scenario specs, reports and cache keys.
[[nodiscard]] constexpr std::string_view to_string(FidelityProfile profile) {
  return profile == FidelityProfile::kFast ? "fast" : "exact";
}

}  // namespace adc::common
