/// \file structural.hpp
/// Test oracle: a bit-true structural model of the delay-and-correction
/// logic. Only test_structural links it; the product corrects with
/// digital::ErrorCorrection.
///
/// `ErrorCorrection` computes the corrected word arithmetically; this model
/// computes it the way the silicon does — as an unsigned shift-add of the
/// re-encoded stage codes (d + 1 in {0, 1, 2}), rippling real full adders —
/// and counts the hardware while doing it. Two uses:
///  * a bit-true cross-check of the arithmetic model (the tests require
///    exact agreement on every input);
///  * a gate/flip-flop inventory whose switched capacitance the tests bound
///    to 0.5-5 pF. The power model does not call it: its digital term is a
///    36 pF lump (`digital_switched_cap`, power/power_model.hpp).
///
/// The identity that makes the hardware an unsigned adder: with stage weight
/// w_i = 2^(bits-2-i), the correction offset 2^(bits-1) - 2^(F-1) equals
/// sum_i w_i exactly, so
///     D = offset + sum d_i w_i + f  =  sum (d_i + 1) w_i + f
/// — the classic "01 injection" encoding of 1.5-bit redundancy.
#pragma once

#include <cstdint>

#include "common/units.hpp"
#include "digital/codes.hpp"

namespace adc::digital {

using namespace adc::common::literals;

/// Hardware inventory of the correction fabric.
struct GateCount {
  int full_adders = 0;      ///< full-adder cells in the shift-add chain
  int flip_flops = 0;       ///< alignment + output registers (bits)
  int gates_equivalent = 0; ///< NAND2-equivalent gates (FA ~ 6, FF ~ 8)
};

/// Structural (gate-level) correction logic.
class StructuralCorrection {
 public:
  StructuralCorrection(int num_stages, int flash_bits);

  /// Bit-true corrected output; must agree with ErrorCorrection::correct on
  /// every input (saturation included).
  [[nodiscard]] int correct(const RawConversion& raw) const;

  /// Full adders actually toggled by the last `correct` call (an activity
  /// measurement). Reset per call.
  [[nodiscard]] int last_adder_activity() const { return last_activity_; }

  /// Static hardware inventory.
  [[nodiscard]] GateCount gates() const;

  /// Effective switched capacitance [F] of the structural logic at activity
  /// factor `alpha`, with `c_gate` per NAND2-equivalent and `c_ff` per
  /// flip-flop (clock included). This accounts for the correction fabric
  /// only; the converter-level digital power additionally carries the clock
  /// tree and output drivers (see power/power_model.hpp).
  [[nodiscard]] double switched_capacitance(double alpha = 0.2, double c_gate = 2.0_fF,
                                            double c_ff = 10.0_fF) const;

  [[nodiscard]] int resolution_bits() const { return num_stages_ + flash_bits_; }

 private:
  int num_stages_;
  int flash_bits_;
  mutable int last_activity_ = 0;
};

}  // namespace adc::digital
