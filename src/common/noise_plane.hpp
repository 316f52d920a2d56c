/// \file noise_plane.hpp
/// Capture-batched noise draws for the `fast` fidelity profile.
///
/// Under the `fast` contract a conversion kernel does not draw noise one
/// deviate at a time; before the sample loop it generates a contiguous
/// *noise plane* — `count` rows of `slots_per_sample` standard normals —
/// and each sample reads its row by pointer. The deviate in
/// `(sample, slot)` is `philox_normal_at(key, epoch, sample·slots + slot)`:
/// a pure function of position, so the plane is bit-identical whether it is
/// generated in one shot, in chunks, or re-generated on another thread
/// count, and a model that skips a slot (e.g. the low comparator when the
/// high one already decided) does not shift any other model's draws.
///
/// A plane may also be generated *sparsely*: `generate(epoch, first, count,
/// blocks)` materializes only the listed Philox blocks (a block carries the
/// deviates 2k and 2k+1) and leaves every other position unspecified. The
/// fast stage chain generates its planes that way, skipping the blocks
/// that hold only comparator draws, and fetches such a draw by position
/// only when it can change a decision (pipeline/fast_chain.hpp). Both
/// forms are the one lane-minor fill `tile::philox_normal_rows` at W = 1.
///
/// `epoch` distinguishes captures: the converter bumps it once per capture
/// so repeated captures see fresh noise, mirroring how the sequential
/// exact-profile stream advances across calls.
///
/// The deviate *values* are owned by the fast determinism contract
/// (`kFastContractVersion` in common/fidelity.hpp): positional indexing is
/// stable across contract versions, but the pinned draw math — and hence
/// every bit of the plane — changes when the contract version bumps, and
/// the scenario cache keys on that version.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "common/counter_rng.hpp"
#include "common/counter_rng_tile.hpp"

namespace adc::common {

/// A (sample × slot) matrix of standard-normal deviates with positional
/// determinism. Reusable: `generate` only grows the backing buffer.
class NoisePlane {
 public:
  NoisePlane() = default;

  NoisePlane(std::uint64_t key, std::uint32_t slots_per_sample)
      : key_(key), slots_(slots_per_sample) {}

  /// Materialize rows [first_sample, first_sample + count) of capture
  /// `epoch`. Any previous contents are replaced.
  void generate(std::uint64_t epoch, std::uint64_t first_sample, std::size_t count) {
    const std::uint32_t every = 0;
    generate(epoch, first_sample, count, tile::BlockList{&every, 1, 1});
  }

  /// The same window with only the blocks `blocks` lists materialized,
  /// its period counted from block first_sample·slots/2; the other
  /// positions hold whatever the buffer held before.
  void generate(std::uint64_t epoch, std::uint64_t first_sample, std::size_t count,
                const tile::BlockList& blocks) {
    epoch_ = epoch;
    first_sample_ = first_sample;
    count_ = count;
    buffer_.resize(count * slots_);
    tile::philox_normal_rows<1>(&key_, epoch, first_sample * slots_, count * slots_, blocks,
                                buffer_.data());
  }

  /// Row of `slots_per_sample()` deviates for `sample` (must lie in the
  /// generated window).
  [[nodiscard]] const double* row(std::uint64_t sample) const {
    ADC_EXPECT(sample >= first_sample_ && sample - first_sample_ < count_,
               "NoisePlane::row: sample outside the generated window");
    return buffer_.data() + (sample - first_sample_) * slots_;
  }

  [[nodiscard]] std::uint32_t slots_per_sample() const { return slots_; }
  [[nodiscard]] std::uint64_t key() const { return key_; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

 private:
  std::uint64_t key_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t first_sample_ = 0;
  std::size_t count_ = 0;
  std::uint32_t slots_ = 0;
  std::vector<double> buffer_;
};

}  // namespace adc::common
