#include "digital/alignment.hpp"

#include "common/error.hpp"

namespace adc::digital {

DelayAlignment::DelayAlignment(int num_stages) : num_stages_(num_stages) {
  adc::common::require(num_stages >= 1, "DelayAlignment: need at least one stage");
  adc::common::require(static_cast<std::size_t>(num_stages) <= StageCodeVec::kCapacity,
                       "DelayAlignment: stage count exceeds code capacity");
}

int DelayAlignment::latency_cycles() const {
  // All codes of sample n have resolved by half-clock 2n + S + 1; the
  // corrected word is registered at the next full clock edge:
  // ceil((S + 2) / 2) cycles after the sample.
  return (num_stages_ + 2 + 1) / 2;
}

std::optional<RawConversion> DelayAlignment::push(RawConversion raw) {
  adc::common::require(static_cast<int>(raw.stage_codes.size()) == num_stages_,
                       "DelayAlignment: stage-code count mismatch");
  fifo_[(head_ + count_) % kFifoCapacity] = raw;
  ++count_;
  if (static_cast<int>(count_) <= latency_cycles()) return std::nullopt;
  return flush();
}

std::optional<RawConversion> DelayAlignment::flush() {
  if (count_ == 0) return std::nullopt;
  RawConversion out = fifo_[head_];
  head_ = (head_ + 1) % kFifoCapacity;
  --count_;
  return out;
}

void DelayAlignment::reset() {
  head_ = 0;
  count_ = 0;
}

}  // namespace adc::digital
