/// \file refbuffer.hpp
/// Reference-voltage buffer with off-chip decoupling.
///
/// The pipeline's DSBs draw code-dependent charge from VREFP/VREFN every
/// amplification phase. The paper decouples the buffered references with
/// off-chip capacitors; what remains visible to the stages is a small static
/// level error plus a code-history-dependent droop (incomplete recovery of
/// the decoupling network between samples), which appears as a weak
/// signal-dependent reference — a second-order distortion contributor.
#pragma once

#include <cstdint>

#include "common/random.hpp"
#include "common/units.hpp"

namespace adc::analog {

using namespace adc::common::literals;

/// Electrical parameters of the buffered reference network.
struct RefBufferSpec {
  double nominal_vref = 1.0;      ///< differential reference VREFP-VREFN [V]
  double common_mode = 0.9;       ///< CM voltage [V]
  double output_resistance = 2.0; ///< buffer Rout [Ohm]
  double decap_farad = 100.0_nF;  ///< off-chip decoupling [F]
  /// Charge drawn per stage per conversion at full reference switching [C].
  double charge_per_event = 0.6_pC;
  double sigma_level = 1.0_mV;    ///< one-sigma static level error [V]
  double quiescent_current = 2.0_mA;  ///< buffer bias [A] (for the power model)

  bool operator==(const RefBufferSpec&) const = default;
};

/// Stateful reference buffer: tracks the residual droop on the decoupling
/// network from sample to sample.
class ReferenceBuffer {
 public:
  ReferenceBuffer(const RefBufferSpec& spec, adc::common::Rng& rng);

  /// Effective differential reference for the current sample [V].
  [[nodiscard]] double vref() const;

  /// Common-mode voltage [V].
  [[nodiscard]] double common_mode() const { return spec_.common_mode; }

  /// Account for the charge the DSBs drew this conversion: `activity` is the
  /// sum over stages of |d_i| in [0, n_stages]. Call once per sample, after
  /// reading vref(); the droop recovers towards zero with the buffer's RC
  /// between samples (`period` = 1/f_CR).
  void consume(double activity, double period_s);

  /// Reset droop state (new capture).
  void reset();

  [[nodiscard]] const RefBufferSpec& spec() const { return spec_; }

  /// Realized static level error [V] drawn at construction (batch-engine
  /// plan hoisting: a batch lane reconstructs vref as nominal + level - droop
  /// with its own per-lane droop state).
  [[nodiscard]] double level_error() const { return level_error_; }

 private:
  ReferenceBuffer(const RefBufferSpec& spec, double level_error);
  RefBufferSpec spec_;
  double level_error_;
  double droop_ = 0.0;
  /// Recharge factor exp(-period/tau) cached on the period's bit pattern:
  /// the conversion kernel calls consume() with the same period every
  /// sample, so the exp() is paid once per capture, not per sample. 0 (the
  /// bit pattern of +0.0) is a safe sentinel — consume() only reaches the
  /// cache for period_s > 0.
  std::uint64_t recharge_period_bits_ = 0;
  double recharge_factor_ = 0.0;
};

}  // namespace adc::analog
