/// \file fast_layout.hpp
/// Noise-plane slot layout of the fast fidelity profile.
///
/// One row of standard normals per sample, each physical mechanism owning a
/// fixed slot, so an unconsumed draw (e.g. the low ADSC comparator when the
/// high one already decided) never shifts another mechanism's noise. The
/// stage chain (pipeline/fast_chain.hpp) reads the ripple, stage and flash
/// slots, the front end (pipeline/fast_front.hpp) the jitter slots — at
/// W = 1 from one die's NoisePlane row, in the batch kernel from lane-minor
/// rows of the same positional draws.
#pragma once

#include <cstddef>

namespace adc::pipeline::fast_layout {

inline constexpr std::size_t kSlotRipple = 0;     ///< SC-bias switching ripple
inline constexpr std::size_t kSlotJitter = 1;     ///< white aperture jitter
inline constexpr std::size_t kSlotWalk = 2;       ///< random-walk jitter step
inline constexpr std::size_t kSlotStageBase = 3;  ///< first stage slot
inline constexpr std::size_t kSlotsPerStage = 3;  ///< thermal, cmp_high, cmp_low

/// Slots per sample for a pipeline of `stages` 1.5b stages followed by a
/// `flash_comparators`-comparator backend flash.
[[nodiscard]] inline constexpr std::size_t slots_per_sample(std::size_t stages,
                                                            std::size_t flash_comparators) {
  return kSlotStageBase + kSlotsPerStage * stages + flash_comparators;
}

}  // namespace adc::pipeline::fast_layout
