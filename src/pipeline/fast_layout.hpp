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
///
/// ## Eager and elided blocks
///
/// Deviates come in Philox blocks: block k carries the deviates at absolute
/// positions 2k and 2k+1 (common/counter_rng.hpp), position
/// sample·slots + slot. A block both of whose positions are comparator
/// slots is *elided*: the planes leave it out, and the chain decides such a
/// comparator on draw 0.0 unless its input lies close enough to the
/// threshold for the real draw to change the decision, in which case it
/// fetches the draw by position (pipeline/fast_chain.hpp). Every other
/// block is *eager*, generated up front. The rule is defined on absolute
/// positions, so a row of odd width, whose blocks straddle rows, needs no
/// special case. In the nominal 36-slot row 7 of the 18 blocks are elided:
/// the comparator pairs of stages 0, 2, 4, 6 and 8, stage 9's low
/// comparator with flash comparator 0, and flash comparators 1 and 2.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/always_inline.hpp"

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

/// True when `slot` holds a comparator draw: a stage's high or low ADSC
/// comparator, or a flash comparator. The slot one past the row is not one.
[[nodiscard]] ADC_ALWAYS_INLINE inline constexpr bool comparator_slot(
    std::size_t slot, std::size_t stages, std::size_t flash_comparators) {
  if (slot < kSlotStageBase) return false;
  const std::size_t s = slot - kSlotStageBase;
  if (s < kSlotsPerStage * stages) return s % kSlotsPerStage != 0;
  return s - kSlotsPerStage * stages < flash_comparators;
}

/// True when the draw at `slot` of the row starting at absolute position
/// `first` (= sample·slots) sits in an elided block: it and the other
/// deviate of its block are both comparator draws.
[[nodiscard]] ADC_ALWAYS_INLINE inline constexpr bool elided(std::uint64_t first,
                                                             std::size_t slot, std::size_t stages,
                                                             std::size_t flash_comparators) {
  if (!comparator_slot(slot, stages, flash_comparators)) return false;
  // The block partner of an even position is the next slot (past the row:
  // the next row's ripple slot), of an odd one the previous slot (slot 0 is
  // never a comparator, so this never leaves the row).
  const std::size_t partner = ((first + slot) & 1u) == 0 ? slot + 1 : slot - 1;
  return comparator_slot(partner, stages, flash_comparators);
}

/// True when block `block` of a plane with rows of `slots_per_sample(stages,
/// flash_comparators)` slots is elided.
[[nodiscard]] ADC_ALWAYS_INLINE inline constexpr bool block_elided(
    std::uint64_t block, std::size_t stages, std::size_t flash_comparators) {
  const std::uint64_t slots = slots_per_sample(stages, flash_comparators);
  const std::uint64_t q = 2 * block;
  return elided(q - q % slots, static_cast<std::size_t>(q % slots), stages, flash_comparators);
}

}  // namespace adc::pipeline::fast_layout
