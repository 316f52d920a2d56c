/// \file parallel.hpp
/// Deterministic batch execution on top of the work-stealing pool.
///
/// The repo's parallel workloads are all *index-keyed job streams*: die `i`
/// of a Monte-Carlo run is `(config, first_seed + i)`, point `i` of a sweep
/// is `(config, seed, operating-point[i])`. `parallel_map` exploits that
/// shape to give a hard determinism contract:
///
///   - Job `i` writes only slot `i` of the result vector, so the returned
///     vector is in index (seed/point) order regardless of worker count or
///     steal interleaving.
///   - Jobs must be pure functions of their index (each fabricates its own
///     converter from config + seed); given that, results are bit-identical
///     at threads=1 and threads=N and across repeated runs.
///   - A throwing job cancels the rest of the batch cooperatively and the
///     exception is rethrown on the *calling* thread. When exactly one job
///     throws, that exception is the one rethrown; when several race, the
///     lowest-index captured exception wins.
///
/// Thread-count resolution, in priority order: `BatchOptions::threads`, the
/// innermost active `ScopedThreadOverride`, then `default_thread_count()`
/// (the `ADC_RUNTIME_THREADS` environment override, else hardware
/// concurrency). A batch started *from inside a pool worker* runs inline on
/// the caller (nested parallelism never deadlocks, it serializes).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "runtime/thread_pool.hpp"

namespace adc::runtime {

/// The most threads a caller may ask for (parse_thread_count).
inline constexpr unsigned kMaxThreads = 1024;

/// `text` as a thread count: a whole decimal in 1..kMaxThreads, else
/// nullopt. The one rule for ADC_RUNTIME_THREADS and the CLIs' `--threads`.
[[nodiscard]] std::optional<unsigned> parse_thread_count(std::string_view text);

/// Worker-thread default: ADC_RUNTIME_THREADS when it parses
/// (parse_thread_count), otherwise std::thread::hardware_concurrency().
[[nodiscard]] unsigned default_thread_count();

/// The process-wide shared pool, created on first use with
/// default_thread_count() workers.
[[nodiscard]] ThreadPool& global_pool();

/// RAII thread-count override for the calling thread; nests. Used by tests
/// and benches to pin a batch to a reference serial run (`{1}`) or an exact
/// worker count without re-plumbing options through every call site.
class ScopedThreadOverride {
 public:
  explicit ScopedThreadOverride(unsigned threads);
  ~ScopedThreadOverride();
  ScopedThreadOverride(const ScopedThreadOverride&) = delete;
  ScopedThreadOverride& operator=(const ScopedThreadOverride&) = delete;

 private:
  unsigned previous_;
};

/// The thread count a batch would use right now for `requested` (0 = apply
/// override/default resolution).
[[nodiscard]] unsigned effective_thread_count(unsigned requested);

/// Telemetry for one parallel_map call.
struct BatchStats {
  std::uint64_t jobs = 0;
  std::uint64_t skipped = 0;  ///< jobs skipped by cancellation
  double wall_seconds = 0.0;
  double cpu_seconds = 0.0;
};

/// Options for one batch.
struct BatchOptions {
  /// Worker threads for this batch (0 = override/default resolution).
  unsigned threads = 0;
  /// Optional external cancellation; the batch also cancels itself on the
  /// first job failure.
  CancellationToken* cancel = nullptr;
  /// Optional telemetry sink, written before return (also on the throw path
  /// via the batch's internal accounting — stats are valid once the call
  /// returns normally).
  BatchStats* stats = nullptr;
};

namespace detail {

/// Completion latch + error slots shared by one batch.
struct BatchState {
  explicit BatchState(std::size_t n) : errors(n) {}
  std::mutex mutex;
  std::condition_variable all_done;
  std::size_t done = 0;
  std::uint64_t skipped = 0;
  std::vector<std::exception_ptr> errors;

  void finish_one(bool was_skipped) {
    std::lock_guard<std::mutex> lock(mutex);
    if (was_skipped) ++skipped;
    ++done;
    if (done == errors.size()) all_done.notify_all();
  }
  void wait(std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex);
    all_done.wait(lock, [&] { return done == n; });
  }
  /// Rethrow the lowest-index captured exception, if any.
  void rethrow_first() {
    for (auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }
};

}  // namespace detail

/// Run `fn(0) ... fn(n-1)` and return the results in index order. `T` must
/// be default-constructible and move-assignable; `fn` must be safe to call
/// concurrently from multiple threads for distinct indices. See the file
/// header for the determinism and exception contract.
template <typename T, typename Fn>
[[nodiscard]] std::vector<T> parallel_map(std::size_t n, Fn&& fn,
                                          const BatchOptions& options = {}) {
  std::vector<T> out(n);
  if (n == 0) {
    if (options.stats) *options.stats = {};
    return out;
  }

  const Stopwatch watch;
  CancellationToken local_cancel;
  CancellationToken* cancel = options.cancel ? options.cancel : &local_cancel;
  const unsigned threads = effective_thread_count(options.threads);

  if (threads <= 1 || n == 1 || ThreadPool::on_worker_thread()) {
    // Serial reference path; also taken for nested batches (see file header).
    std::uint64_t skipped = 0;
    std::exception_ptr first_error;
    for (std::size_t i = 0; i < n; ++i) {
      if (cancel->cancelled()) {
        ++skipped;
        continue;
      }
      try {
        out[i] = fn(i);
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
        cancel->cancel();
      }
    }
    if (options.stats) {
      *options.stats = {n, skipped, watch.wall_seconds(), watch.cpu_seconds()};
    }
    if (first_error) std::rethrow_exception(first_error);
    return out;
  }

  // A batch at the global default size shares the global pool; an explicit
  // different width gets a private pool for exactly this batch.
  std::optional<ThreadPool> private_pool;
  ThreadPool* pool = &global_pool();
  if (threads != pool->thread_count()) {
    private_pool.emplace(ThreadPoolOptions{threads, std::max<std::size_t>(n, 64)});
    pool = &*private_pool;
  }

  detail::BatchState state(n);
  for (std::size_t i = 0; i < n; ++i) {
    pool->submit([&, i] {
      if (cancel->cancelled()) {
        state.finish_one(true);
        return;
      }
      try {
        out[i] = fn(i);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(state.mutex);
          state.errors[i] = std::current_exception();
        }
        cancel->cancel();
      }
      state.finish_one(false);
    });
  }
  state.wait(n);

  if (options.stats) {
    *options.stats = {n, state.skipped, watch.wall_seconds(), watch.cpu_seconds()};
  }
  state.rethrow_first();
  return out;
}

}  // namespace adc::runtime
