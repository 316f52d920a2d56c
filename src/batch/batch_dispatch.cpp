/// Runtime ISA dispatch: one function-pointer table per tier, selected by
/// adc::common::BatchIsa. Baseline-compiled TU (no wide instructions here —
/// taking the address of a wide-TU entry point is safe; calling it is only
/// done after detection says the CPU can).
#include "batch/batch_api.hpp"

namespace adc::batch {

const KernelOps& kernel_ops(adc::common::BatchIsa isa) {
  static constexpr KernelOps kSse2{&sse2::convert_capture,  &sse2::chain_capture,
                                   &sse2::normal_fill,      &sse2::normal_rows,
                                   &sse2::comparator_lanes, &sse2::exp_span,
                                   &sse2::sincos_span};
  static constexpr KernelOps kAvx2{&avx2::convert_capture,  &avx2::chain_capture,
                                   &avx2::normal_fill,      &avx2::normal_rows,
                                   &avx2::comparator_lanes, &avx2::exp_span,
                                   &avx2::sincos_span};
  static constexpr KernelOps kAvx512{&avx512::convert_capture,  &avx512::chain_capture,
                                     &avx512::normal_fill,      &avx512::normal_rows,
                                     &avx512::comparator_lanes, &avx512::exp_span,
                                     &avx512::sincos_span};
  switch (isa) {
    case adc::common::BatchIsa::kAvx512:
      return kAvx512;
    case adc::common::BatchIsa::kAvx2:
      return kAvx2;
    case adc::common::BatchIsa::kSse2:
      break;
  }
  return kSse2;
}

}  // namespace adc::batch
