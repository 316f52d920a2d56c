#include "pipeline/flash.hpp"

#include "common/error.hpp"
#include "pipeline/fast_chain.hpp"

namespace adc::pipeline {

FlashConverter::FlashConverter(int bits, const adc::analog::ComparatorSpec& comparator_spec,
                               double vref_nominal, adc::common::Rng rng)
    : bits_(bits), vref_nominal_(vref_nominal) {
  adc::common::require(bits >= 1 && bits <= 4, "FlashConverter: bits must be 1..4");
  adc::common::require(vref_nominal > 0.0, "FlashConverter: non-positive V_REF");
  const int half_levels = 1 << (bits - 1);
  const int count = (1 << bits) - 1;
  threshold_fractions_.reserve(static_cast<std::size_t>(count));
  comparators_.reserve(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    const double frac = static_cast<double>(k - half_levels + 1) / half_levels;
    threshold_fractions_.push_back(frac);
    adc::analog::ComparatorSpec spec = comparator_spec;
    spec.threshold = frac * vref_nominal;
    auto cmp_rng = rng.child("flash-cmp", static_cast<std::uint64_t>(k));
    comparators_.emplace_back(spec, cmp_rng);
  }
}

adc::digital::FlashCode FlashConverter::quantize(double v, double vref) {
  // Thermometer code: count comparators whose threshold the input exceeds.
  // Real thermometer decoders tolerate a single bubble; counting ones is the
  // standard bubble-tolerant decode.
  unsigned count = 0;
  for (std::size_t k = 0; k < comparators_.size(); ++k) {
    if (comparators_[k].decide_with_threshold(v, threshold_fractions_[k] * vref)) ++count;
  }
  return static_cast<adc::digital::FlashCode>(count);
}

void FlashConverter::write_fast_fields(double* out, std::size_t stride) const {
  using namespace fast_chain;
  for (std::size_t k = 0; k < comparators_.size(); ++k) {
    out[kFlashOff * stride + k] = comparators_[k].offset();
    out[kFlashNoise * stride + k] = comparators_[k].noise_rms();
    out[kFlashMeta * stride + k] = comparators_[k].metastable_window();
  }
}

adc::digital::FlashCode FlashConverter::ideal_quantize(double v) const {
  unsigned count = 0;
  for (double frac : threshold_fractions_) {
    if (v > frac * vref_nominal_) ++count;
  }
  return static_cast<adc::digital::FlashCode>(count);
}

}  // namespace adc::pipeline
