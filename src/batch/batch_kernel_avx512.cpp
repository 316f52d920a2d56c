/// AVX-512 tier (F/DQ/VL/BW, -mprefer-vector-width=512): 8 doubles per
/// vector, so a W-lane pass carries W/8 independent vectors per operation.
/// -ffp-contract=off is load-bearing here — AVX-512F implies FMA and GCC's
/// default contract=fast would fuse the settle/polynomial chains, changing
/// bits vs the SSE2 tier.
#define ADC_BATCH_ISA_NS avx512
#include "batch/batch_kernel_impl.hpp"
