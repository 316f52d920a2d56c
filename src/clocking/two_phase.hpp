/// \file two_phase.hpp
/// Two-phase stage clocking and the paper's non-overlap removal.
///
/// A conventional pipeline generates global non-overlapping phi1/phi2 with a
/// guard interval t_nov so S2 can never close before S1 opens; the guard is
/// dead time stolen from the amplifier's settling window every half period.
/// The paper removes the global non-overlap and instead sequences the
/// switches *locally* inside each stage, which costs only a couple of gate
/// delays. The settling window gained allows a lower opamp GBW and therefore
/// lower bias current — one of the paper's power savings. This module turns
/// a scheme + conversion rate into the usable tracking/settling windows.
#pragma once

#include "common/units.hpp"

namespace adc::clocking {

using namespace adc::common::literals;

/// Clocking scheme for the pipeline stages.
enum class ClockingScheme {
  kConventionalNonOverlap,  ///< global phi1/phi2 with a fixed guard interval
  kLocalSequential,         ///< the paper's scheme: local switch sequencing
};

/// Timing parameters of the phase generator.
struct PhaseTimingSpec {
  ClockingScheme scheme = ClockingScheme::kLocalSequential;
  /// Guard (non-overlap) interval of the conventional scheme [s].
  double non_overlap_s = 700.0_ps;
  /// Residual local sequencing delay of the paper's scheme [s]
  /// (a few gate delays in 0.18um).
  double local_sequence_delay_s = 120.0_ps;
  /// Additional fixed overhead per phase: switch turn-on, comparator
  /// regeneration before the DSB can select the reference [s].
  double phase_overhead_s = 150.0_ps;

  bool operator==(const PhaseTimingSpec&) const = default;
};

/// Phase windows available to a stage at one conversion rate.
struct PhaseWindows {
  double period_s = 0.0;    ///< 1/f_CR
  double track_s = 0.0;     ///< input tracking window
  double settle_s = 0.0;    ///< amplification (settling) window
  double hold_s = 0.0;      ///< time the sampled charge must survive droop
};

/// Computes usable windows for a given scheme and conversion rate.
class PhaseGenerator {
 public:
  explicit PhaseGenerator(const PhaseTimingSpec& spec);

  /// Windows at conversion rate `f_cr` [Hz]. Throws ConfigError if the rate
  /// is so high that the overheads consume an entire half period.
  [[nodiscard]] PhaseWindows windows(double f_cr) const;

  /// The dead time the scheme loses per half period [s].
  [[nodiscard]] double dead_time() const;

  [[nodiscard]] const PhaseTimingSpec& spec() const { return spec_; }

 private:
  PhaseTimingSpec spec_;
};

}  // namespace adc::clocking
