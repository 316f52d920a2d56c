/// \file fast_front.hpp
/// The fast-profile sampling front end for W dies at once: the sampling
/// instant (aperture plus random-walk jitter) and the input switch's
/// tracking error and charge injection. The only implementation of both:
/// PipelineAdc runs it at W = 1, the batch kernel at W ∈ {8, 16, 32}, on
/// lane-minor noise rows as in fast_chain.hpp. Plain data and
/// ADC_ALWAYS_INLINE only (common/always_inline.hpp); out-of-span switch
/// errors call back into the sampler's baseline code.
#pragma once

#include <cstddef>

#include "analog/sampler_view.hpp"
#include "common/always_inline.hpp"
#include "common/fastmath.hpp"
#include "pipeline/fast_layout.hpp"

namespace adc::pipeline::fast_front {

/// Everything the front end reads. The clock period is per lane, so dies
/// converting at different rates share a block; everything else is
/// lane-uniform (dies of one block share their jitter and sampler).
struct FrontView {
  const double* period = nullptr;  ///< [W] 1 / f_CR [s]
  double jitter_rms = 0.0;  ///< white aperture jitter sigma [s]
  double walk_rms = 0.0;    ///< random-walk jitter step sigma [s]
  bool tracking_on = false;  ///< NonIdealities::tracking_nonlinearity
  adc::analog::SamplerView sampler;
};

/// Sampling instants of sample `k` on W lanes: k·T of each lane, white jitter, and the
/// random walk each lane accumulates in `walk` across a capture.
template <std::size_t W>
ADC_ALWAYS_INLINE inline void instant(const FrontView& f, std::size_t k, const double* row,
                                      double* walk, double* t) {
  const double kd = static_cast<double>(k);
  for (std::size_t l = 0; l < W; ++l) t[l] = kd * f.period[l];
  if (f.jitter_rms > 0.0) {
    const double* d = row + fast_layout::kSlotJitter * W;
    for (std::size_t l = 0; l < W; ++l) t[l] += f.jitter_rms * d[l];
  }
  if (f.walk_rms > 0.0) {
    const double* d = row + fast_layout::kSlotWalk * W;
    for (std::size_t l = 0; l < W; ++l) {
      walk[l] += f.walk_rms * d[l];
      t[l] += walk[l];
    }
  }
}

/// Tracked voltages of W lanes with inputs `v` and slopes `dv`: v, then the
/// tracking lag -tau(v)·dv, then the injection error v·H(v²). A null `dv`
/// is a held (DC) input: injection only. Lanes whose v² leaves the span
/// take the sampler's fallbacks.
template <std::size_t W>
ADC_ALWAYS_INLINE inline void track(const FrontView& f, const double* v, const double* dv,
                                    double* out) {
  if (!f.tracking_on) {
    for (std::size_t l = 0; l < W; ++l) out[l] = v[l];
    return;
  }
  const adc::analog::SamplerView& s = f.sampler;
  double z[W];
  double tau[W];
  double inj[W];
  for (std::size_t l = 0; l < W; ++l) z[l] = v[l] * v[l];
  if (dv != nullptr) adc::common::fastmath::clenshaw<W>(s.tau, z, tau);
  if (s.injection_on) {
    adc::common::fastmath::clenshaw<W>(s.inj, z, inj);
  } else {
    for (std::size_t l = 0; l < W; ++l) inj[l] = 0.0;
  }
  bool any_oos = false;
  bool oos[W];
  for (std::size_t l = 0; l < W; ++l) {
    oos[l] = z[l] > s.span_z;
    any_oos = any_oos || oos[l];
  }
  for (std::size_t l = 0; l < W; ++l) {
    double tr = v[l];
    if (dv != nullptr) tr += -tau[l] * dv[l];
    tr += s.injection_on ? v[l] * inj[l] : 0.0;
    out[l] = tr;
  }
  if (any_oos) {
    // Rare: the input left the fitted span.
    for (std::size_t l = 0; l < W; ++l) {
      if (!oos[l]) continue;
      double tr = v[l];
      if (dv != nullptr) tr += -s.tau_fallback(s.ctx, v[l]) * dv[l];
      tr += s.inj_fallback(s.ctx, v[l]);
      out[l] = tr;
    }
  }
}

}  // namespace adc::pipeline::fast_front
