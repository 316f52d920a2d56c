/// \file alignment.hpp
/// Delay alignment of stage codes (the "Delay and Correction Logic" block of
/// the paper's die photo).
///
/// Stage i resolves sample n during half-clock 2n + i; the flash resolves at
/// half-clock 2n + S + 1. Each stage code therefore passes through
/// (S + 1 - i) half-clock registers before all codes of one sample meet at
/// the correction adder, whose output is registered on the next full clock
/// edge. For the paper's S = 10 chain the aligned word for sample n appears
/// at output clock n + latency_cycles().
#pragma once

#include <array>
#include <cstddef>
#include <optional>

#include "digital/codes.hpp"

namespace adc::digital {

/// Models the alignment register file at the cycle level.
class DelayAlignment {
 public:
  explicit DelayAlignment(int num_stages);

  /// Whole output-clock cycles between a sample entering stage 1 and its
  /// corrected word appearing at DOUT.
  [[nodiscard]] int latency_cycles() const;

  /// Push the raw conversion whose front-end sample was taken this cycle;
  /// returns the conversion that completes alignment this cycle, or nullopt
  /// during the initial pipeline fill.
  [[nodiscard]] std::optional<RawConversion> push(RawConversion raw);

  /// Drain one remaining conversion after the input stream has ended
  /// (flushes the pipeline); nullopt when empty.
  [[nodiscard]] std::optional<RawConversion> flush();

  /// Clear all registers (power-on state).
  void reset();

  [[nodiscard]] int num_stages() const { return num_stages_; }

 private:
  /// The register file holds at most latency_cycles() + 1 words during a
  /// push, and latency is bounded by the stage-count cap baked into
  /// StageCodeVec: (20 + 3) / 2 + 1 = 12. A fixed ring buffer keeps the
  /// per-sample push/pop free of heap traffic (a std::deque node allocation
  /// per conversion on the hot path before this).
  static constexpr std::size_t kFifoCapacity = 16;

  int num_stages_;
  std::array<RawConversion, kFifoCapacity> fifo_{};
  std::size_t head_ = 0;   ///< index of the oldest buffered conversion
  std::size_t count_ = 0;  ///< number of buffered conversions
};

}  // namespace adc::digital
