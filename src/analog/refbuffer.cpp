#include "analog/refbuffer.hpp"

#include <bit>
#include <cmath>

#include "common/error.hpp"

namespace adc::analog {

ReferenceBuffer::ReferenceBuffer(const RefBufferSpec& spec, adc::common::Rng& rng)
    : ReferenceBuffer(spec, rng.gaussian(spec.sigma_level)) {}

ReferenceBuffer::ReferenceBuffer(const RefBufferSpec& spec, double level_error)
    : spec_(spec), level_error_(level_error) {
  adc::common::require(spec.nominal_vref > 0.0, "ReferenceBuffer: non-positive VREF");
  adc::common::require(spec.decap_farad > 0.0, "ReferenceBuffer: non-positive decap");
  adc::common::require(spec.output_resistance >= 0.0, "ReferenceBuffer: negative Rout");
}

double ReferenceBuffer::vref() const {
  return spec_.nominal_vref + level_error_ - droop_;
}

void ReferenceBuffer::consume(double activity, double period_s) {
  if (spec_.charge_per_event <= 0.0) return;
  // Charge dumped on the decap this conversion.
  const double dv = activity * spec_.charge_per_event / spec_.decap_farad;
  droop_ += dv;
  // The buffer recharges the decap with time constant Rout*Cdecap. The
  // period is the same on every call of a capture, so the exp() is cached on
  // the period's exact bit pattern (recomputing it for a new period keeps
  // the factor bit-identical to the uncached code).
  if (spec_.output_resistance > 0.0 && period_s > 0.0) {
    const auto period_bits = std::bit_cast<std::uint64_t>(period_s);
    if (period_bits != recharge_period_bits_) {
      const double tau = spec_.output_resistance * spec_.decap_farad;
      recharge_factor_ = std::exp(-period_s / tau);  // lint-ok: cached on period change
      recharge_period_bits_ = period_bits;
    }
    droop_ *= recharge_factor_;
  } else {
    droop_ = 0.0;
  }
}

void ReferenceBuffer::reset() { droop_ = 0.0; }

}  // namespace adc::analog
