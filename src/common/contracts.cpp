#include "common/contracts.hpp"

#include <cstdio>
#include <cstdlib>

namespace adc::common {

void contract_failed(const char* kind, const char* cond, const char* msg, const char* file,
                     int line) noexcept {
  // stderr + abort rather than an exception: a broken numerical invariant
  // means the model state is already garbage, and an abort gives sanitizers
  // and debuggers the exact faulting frame.
  std::fprintf(stderr, "%s:%d: %s(%s) failed: %s\n",  // lint-ok: abort-path diagnostic
               file, line, kind, cond, msg);
  std::abort();
}

}  // namespace adc::common
