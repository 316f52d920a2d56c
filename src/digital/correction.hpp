/// \file correction.hpp
/// Redundancy (digital error correction) logic.
///
/// Each 1.5-bit stage resolves {-1, 0, +1} with a half bit of overlap; the
/// correction logic combines ten stage codes and the 2-bit flash into the
/// final 12-bit word by shift-and-add:
///
///     D = sum_i d_i * 2^(B - i)  +  flash,   B = number of stages + 1
///
/// offset so that the all-zero decision path lands at mid-scale. Because each
/// d_i only carries weight 2^(B-i) while the stage residue spans the *full*
/// next-stage range, an ADSC decision error of up to +/- V_REF/4 moves later
/// codes in exactly the opposite direction and cancels — the property tests
/// exercise this to the boundary.
///
/// The adder is correct_lanes<W>: ErrorCorrection::correct runs it at one
/// lane, the batch kernel at W lanes on its reference die's view().
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "common/always_inline.hpp"
#include "digital/codes.hpp"

namespace adc::digital {

/// The shift-and-add constants of one ErrorCorrection, as plain data.
struct CorrectionView {
  long long offset = 0;                ///< accumulator start (mid-scale path)
  long long max_code = 0;              ///< 2^bits - 1, the saturation ceiling
  const long long* weights = nullptr;  ///< [num_stages] 2^(bits - 2 - i)
  std::size_t num_stages = 0;
};

/// Corrected words of W lanes: `codes[i][l]` is stage i's decision (-1, 0,
/// +1) in lane l, `flash[l]` the lane's flash code. Exact integer
/// arithmetic, saturating into [0, max_code] like the hardware adder.
template <std::size_t W>
ADC_ALWAYS_INLINE inline void correct_lanes(const CorrectionView& c, const int (*codes)[W],
                                            const int* flash, int* out) {
  long long acc[W];
  for (std::size_t l = 0; l < W; ++l) acc[l] = c.offset;
  for (std::size_t i = 0; i < c.num_stages; ++i) {
    const long long w = c.weights[i];
    for (std::size_t l = 0; l < W; ++l) acc[l] += static_cast<long long>(codes[i][l]) * w;
  }
  for (std::size_t l = 0; l < W; ++l) {
    long long a = acc[l] + flash[l];
    a = a < 0 ? 0 : a;
    a = a > c.max_code ? c.max_code : a;
    out[l] = static_cast<int>(a);
  }
}

/// Combines raw stage codes into final output words.
class ErrorCorrection {
 public:
  /// `num_stages` 1.5-bit stages followed by a `flash_bits`-bit flash.
  /// Total resolution = num_stages + flash_bits.
  ErrorCorrection(int num_stages, int flash_bits);

  /// Total converter resolution in bits.
  [[nodiscard]] int resolution_bits() const { return num_stages_ + flash_bits_; }

  /// Apply shift-and-add correction. The result is clamped into
  /// [0, 2^bits - 1] (out-of-range decision paths saturate, as the hardware
  /// adder does).
  [[nodiscard]] int correct(const RawConversion& raw) const;

  /// The adder's constants for correct_lanes; points into this object.
  [[nodiscard]] CorrectionView view() const {
    return {offset_, max_code_, weights_.data(), static_cast<std::size_t>(num_stages_)};
  }

 private:
  int num_stages_;
  int flash_bits_;
  long long offset_ = 0;
  long long max_code_ = 0;
  std::array<long long, StageCodeVec::kCapacity> weights_{};
};

}  // namespace adc::digital
