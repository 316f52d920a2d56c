/// \file sampler_view.hpp
/// Plain-old-data view of the input sampler's fast-profile error terms,
/// written by DifferentialSampler::write_fast_fields and read by the fast
/// front end in baseline and wide-ISA translation units alike.
#pragma once

#include "common/fastmath.hpp"

namespace adc::analog {

/// The error terms in z = v² of a differential input v: tracking lag
/// T(z)·dv/dt and charge injection v·H(z).
struct SamplerView {
  adc::common::fastmath::ChebyshevView tau;  ///< average time constant T(z) [s]
  adc::common::fastmath::ChebyshevView inj;  ///< injection quotient H(z)
  double span_z = -1.0;       ///< fitted span in z; < 0 = none (always direct)
  bool injection_on = false;  ///< injection_fraction > 0

  /// Direct evaluations for z beyond the span, compiled in the sampler's
  /// baseline unit: the average time constant and the injection error.
  const void* ctx = nullptr;
  double (*tau_fallback)(const void*, double) = nullptr;
  double (*inj_fallback)(const void*, double) = nullptr;
};

}  // namespace adc::analog
