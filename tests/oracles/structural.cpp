#include "oracles/structural.hpp"

#include <array>

#include "common/error.hpp"

namespace adc::digital {

using adc::common::require;

StructuralCorrection::StructuralCorrection(int num_stages, int flash_bits)
    : num_stages_(num_stages), flash_bits_(flash_bits) {
  require(num_stages >= 1, "StructuralCorrection: need at least one stage");
  require(flash_bits >= 1 && flash_bits <= 4, "StructuralCorrection: flash must be 1..4 bits");
  require(num_stages + flash_bits <= 20, "StructuralCorrection: unreasonable resolution");
}

namespace {

/// One full adder: (sum, carry) from (a, b, cin). The single place where
/// "hardware" happens; the caller counts invocations.
struct FullAdder {
  static void add(bool a, bool b, bool cin, bool& sum, bool& cout) {
    sum = a ^ b ^ cin;
    cout = (a && b) || (cin && (a ^ b));
  }
};

constexpr int kMaxBits = 24;
using Word = std::array<bool, kMaxBits>;

/// Ripple-carry accumulate: acc += addend, counting full adders. Returns
/// the final carry-out (overflow flag).
bool ripple_add(Word& acc, const Word& addend, int width, int& fa_count) {
  bool carry = false;
  for (int b = 0; b < width; ++b) {
    bool sum = false;
    bool cout = false;
    FullAdder::add(acc[static_cast<std::size_t>(b)], addend[static_cast<std::size_t>(b)],
                   carry, sum, cout);
    acc[static_cast<std::size_t>(b)] = sum;
    carry = cout;
    ++fa_count;
  }
  return carry;
}

Word to_word(unsigned value, int shift) {
  Word w{};
  for (int b = 0; b + shift < kMaxBits; ++b) {
    w[static_cast<std::size_t>(b + shift)] = ((value >> b) & 1u) != 0u;
  }
  return w;
}

int from_word(const Word& w, int width) {
  int v = 0;
  for (int b = 0; b < width; ++b) {
    if (w[static_cast<std::size_t>(b)]) v |= 1 << b;
  }
  return v;
}

}  // namespace

int StructuralCorrection::correct(const RawConversion& raw) const {
  require(static_cast<int>(raw.stage_codes.size()) == num_stages_,
          "StructuralCorrection: stage-code count mismatch");
  const int bits = resolution_bits();
  // One guard bit on top of the output width catches the only legal
  // overflow (the all-(+1)/full-flash path lands exactly at 2^bits - 1; any
  // carry beyond is the out-of-range saturation case).
  const int width = bits + 1;

  int fa = 0;
  Word acc{};
  // Unsigned re-encoding: u_i = d_i + 1 at weight 2^(bits-2-i).
  for (int i = 0; i < num_stages_; ++i) {
    const auto u = static_cast<unsigned>(
        value(raw.stage_codes[static_cast<std::size_t>(i)]) + 1);
    ripple_add(acc, to_word(u, bits - 2 - i), width, fa);
  }
  ripple_add(acc, to_word(raw.flash_code, 0), width, fa);
  last_activity_ = fa;

  int result = from_word(acc, width);
  // The hardware identity folds the offset into the encoding, so the raw sum
  // is D + sum w_i - offset = D. Saturate exactly as the adder does: the
  // guard bit high means the decision path left the range upward; a result
  // above 2^bits - 1 clamps, and (since u_i >= 0) nothing can underflow
  // below 0.
  const int max_code = (1 << bits) - 1;
  if (result > max_code) result = max_code;
  return result;
}

GateCount StructuralCorrection::gates() const {
  GateCount g;
  const int width = resolution_bits() + 1;
  // One ripple pass per stage plus the flash merge.
  g.full_adders = (num_stages_ + 1) * width;
  // Alignment registers (2 bits per stage per remaining half-clock) plus the
  // output register.
  int regs = 0;
  for (int i = 1; i <= num_stages_; ++i) regs += 2 * (num_stages_ + 1 - i);
  regs += resolution_bits();
  g.flip_flops = regs;
  g.gates_equivalent = 6 * g.full_adders + 8 * g.flip_flops;
  return g;
}

double StructuralCorrection::switched_capacitance(double alpha, double c_gate,
                                                  double c_ff) const {
  require(alpha > 0.0 && alpha <= 1.0, "switched_capacitance: alpha outside (0, 1]");
  const GateCount g = gates();
  // Flip-flops toggle their clock pin every cycle (full c_ff); combinational
  // gates toggle with the data activity.
  return static_cast<double>(g.flip_flops) * c_ff +
         alpha * static_cast<double>(g.gates_equivalent) * c_gate;
}

}  // namespace adc::digital
