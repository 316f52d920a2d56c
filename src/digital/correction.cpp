#include "digital/correction.hpp"

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace adc::digital {

ErrorCorrection::ErrorCorrection(int num_stages, int flash_bits)
    : num_stages_(num_stages), flash_bits_(flash_bits) {
  adc::common::require(num_stages >= 1, "ErrorCorrection: need at least one stage");
  adc::common::require(flash_bits >= 1 && flash_bits <= 4,
                       "ErrorCorrection: flash must be 1..4 bits");
  adc::common::require(num_stages + flash_bits <= 20,
                       "ErrorCorrection: unreasonable total resolution");
  const int bits = resolution_bits();
  // Offset such that the all-zero decision path with a mid flash code lands
  // at mid-scale: offset = 2^(bits-1) - 2^(flash_bits-1). Derivation: the
  // reconstruction Vin = sum d_i Vref/2^i + (f - (2^F-1)/2) * Vref/2^(i_max)
  // mapped to [0, 2^bits-1] with 0.5 LSB centering.
  offset_ = (1 << (bits - 1)) - (1 << (flash_bits_ - 1));
  max_code_ = (1LL << bits) - 1;
  for (int i = 0; i < num_stages_; ++i) {
    // Stage 1 (i = 0) carries 2^(bits-2).
    weights_[static_cast<std::size_t>(i)] = 1LL << (bits - 2 - i);
  }
}

int ErrorCorrection::correct(const RawConversion& raw) const {
  adc::common::require(static_cast<int>(raw.stage_codes.size()) == num_stages_,
                       "ErrorCorrection: stage-code count mismatch");
  int codes[StageCodeVec::kCapacity][1];
  for (std::size_t i = 0; i < raw.stage_codes.size(); ++i) codes[i][0] = value(raw.stage_codes[i]);
  const int flash[1] = {raw.flash_code};
  int word[1];
  correct_lanes<1>(view(), codes, flash, word);
  return word[0];
}

int ErrorCorrection::mid_code() const { return 1 << (resolution_bits() - 1); }

}  // namespace adc::digital
