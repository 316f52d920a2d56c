/// \file thread_pool.hpp
/// Work-stealing thread pool — the execution substrate for every parallel
/// workload in the repo (Monte-Carlo yield, rate/frequency sweeps, PVT
/// corners).
///
/// Shape: one deque per worker. External submissions are dealt round-robin to
/// the worker deques; a worker drains its own deque from the front and, when
/// empty, steals from the *back* of a sibling's deque (classic work-stealing,
/// so a long-running job on one worker never strands the jobs queued behind
/// it). Submission is bounded: `submit` blocks once `queue_capacity` jobs are
/// queued, giving producers backpressure instead of unbounded memory growth.
///
/// The pool itself runs opaque `void()` jobs and never throws across the
/// worker boundary: a throwing job is counted in `counters().failed`, and
/// its exception goes no further. Callers that need per-job
/// exception *propagation* (rethrow on the calling thread) should use the
/// batch API in parallel.hpp, which wraps jobs with capture/rethrow plumbing.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "runtime/metrics.hpp"

namespace adc::runtime {

/// Cooperative cancellation flag shared between a producer and its jobs.
/// Cancelling never interrupts a running job; jobs (and the batch layer)
/// test the flag at their entry points and skip the remaining work.
class CancellationToken {
 public:
  void cancel() noexcept { cancelled_.store(true, std::memory_order_relaxed); }
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

/// Construction options for a pool.
struct ThreadPoolOptions {
  /// Worker threads (0 = default_thread_count(): ADC_RUNTIME_THREADS or
  /// hardware concurrency).
  unsigned threads = 0;
  /// Maximum queued-but-not-yet-running jobs before `submit` blocks.
  std::size_t queue_capacity = 4096;
};

/// Monotonic event counters, readable while the pool runs.
struct PoolCounters {
  std::uint64_t submitted = 0;  ///< jobs accepted into a deque
  std::uint64_t executed = 0;   ///< jobs run to completion (incl. failed)
  std::uint64_t stolen = 0;     ///< jobs executed by a non-assigned worker
  std::uint64_t failed = 0;     ///< jobs that exited with an exception
  std::uint64_t backpressure_waits = 0;  ///< submit calls that had to block
};

class ThreadPool {
 public:
  using Job = std::function<void()>;

  explicit ThreadPool(ThreadPoolOptions options = {});
  /// Drains every queued job, then joins the workers. Must not race live
  /// `submit` calls (producers must be done before destruction).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Queue `job`; blocks while the pending queue is at capacity.
  void submit(Job job);

  /// Block until every submitted job has finished executing.
  void wait_idle();

  [[nodiscard]] unsigned thread_count() const {
    return static_cast<unsigned>(workers_.size());
  }
  [[nodiscard]] std::size_t queue_capacity() const { return capacity_; }
  [[nodiscard]] PoolCounters counters() const;
  /// Per-job wall-latency distribution (log2 microsecond buckets).
  [[nodiscard]] HistogramSnapshot latency_histogram() const {
    return latency_.snapshot();
  }

  /// True when the calling thread is a worker of *any* ThreadPool. The batch
  /// API uses this to run nested parallel sections inline instead of
  /// deadlocking on a blocking wait inside a worker.
  [[nodiscard]] static bool on_worker_thread() noexcept;

 private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<Job> jobs;
  };

  void worker_loop(std::size_t self);
  [[nodiscard]] bool pop_local(std::size_t self, Job& out);
  [[nodiscard]] bool steal(std::size_t self, Job& out);
  void run_job(Job& job);

  std::vector<std::unique_ptr<WorkerQueue>> workers_;
  std::vector<std::thread> threads_;
  std::size_t capacity_;

  // queued_/running_ transitions that cross a wait predicate are made under
  // state_mutex_ so condition-variable wakeups cannot be lost.
  std::mutex state_mutex_;
  std::condition_variable work_available_;
  std::condition_variable space_available_;
  std::condition_variable idle_;
  std::size_t queued_ = 0;
  std::size_t running_ = 0;
  bool stopping_ = false;

  std::atomic<std::uint64_t> next_worker_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> stolen_{0};
  std::atomic<std::uint64_t> failed_{0};
  std::atomic<std::uint64_t> backpressure_waits_{0};
  LatencyHistogram latency_;

};

}  // namespace adc::runtime
