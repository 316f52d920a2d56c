#include "runtime/parallel.hpp"

#include <charconv>
#include <cstdlib>
#include <thread>

namespace adc::runtime {

namespace {

// Innermost ScopedThreadOverride for this thread (0 = none active).
thread_local unsigned tl_thread_override = 0;

}  // namespace

std::optional<unsigned> parse_thread_count(std::string_view text) {
  unsigned value = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || value == 0 || value > kMaxThreads) {
    return std::nullopt;
  }
  return value;
}

unsigned default_thread_count() {
  const char* env = std::getenv("ADC_RUNTIME_THREADS");
  if (const auto from_env = parse_thread_count(env != nullptr ? env : "")) return *from_env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

ThreadPool& global_pool() {
  // Sized once, on first parallel workload; ADC_RUNTIME_THREADS must be set
  // before that point (normal for an environment variable).
  static ThreadPool pool{ThreadPoolOptions{default_thread_count(), 4096}};
  return pool;
}

ScopedThreadOverride::ScopedThreadOverride(unsigned threads)
    : previous_(tl_thread_override) {
  adc::common::require(threads >= 1, "ScopedThreadOverride: thread count must be >= 1");
  tl_thread_override = threads;
}

ScopedThreadOverride::~ScopedThreadOverride() { tl_thread_override = previous_; }

unsigned effective_thread_count(unsigned requested) {
  if (requested > 0) return requested;
  if (tl_thread_override > 0) return tl_thread_override;
  return default_thread_count();
}

}  // namespace adc::runtime
