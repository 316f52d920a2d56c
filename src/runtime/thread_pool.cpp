#include "runtime/thread_pool.hpp"

#include <utility>

#include "common/error.hpp"
#include "runtime/parallel.hpp"

namespace adc::runtime {

namespace {
// Set while a thread is inside any pool's worker loop; lets the batch layer
// detect nested parallelism and fall back to inline execution.
thread_local bool tl_on_worker = false;
}  // namespace

bool ThreadPool::on_worker_thread() noexcept { return tl_on_worker; }

ThreadPool::ThreadPool(ThreadPoolOptions options)
    : capacity_(options.queue_capacity) {
  adc::common::require(capacity_ >= 1, "ThreadPool: queue capacity must be >= 1");
  const unsigned n = options.threads > 0 ? options.threads : default_thread_count();
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) workers_.push_back(std::make_unique<WorkerQueue>());
  threads_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  space_available_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::submit(Job job) {
  adc::common::require(static_cast<bool>(job), "ThreadPool::submit: empty job");
  const std::size_t target =
      next_worker_.fetch_add(1, std::memory_order_relaxed) % workers_.size();
  {
    std::unique_lock<std::mutex> lock(state_mutex_);
    if (queued_ >= capacity_) {
      backpressure_waits_.fetch_add(1, std::memory_order_relaxed);
      space_available_.wait(lock, [this] { return queued_ < capacity_ || stopping_; });
    }
    adc::common::require(!stopping_, "ThreadPool::submit: pool is shutting down");
    ++queued_;
  }
  {
    std::lock_guard<std::mutex> lock(workers_[target]->mutex);
    workers_[target]->jobs.push_back(std::move(job));
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  idle_.wait(lock, [this] { return queued_ == 0 && running_ == 0; });
}

PoolCounters ThreadPool::counters() const {
  PoolCounters c;
  c.submitted = submitted_.load(std::memory_order_relaxed);
  c.executed = executed_.load(std::memory_order_relaxed);
  c.stolen = stolen_.load(std::memory_order_relaxed);
  c.failed = failed_.load(std::memory_order_relaxed);
  c.backpressure_waits = backpressure_waits_.load(std::memory_order_relaxed);
  return c;
}

bool ThreadPool::pop_local(std::size_t self, Job& out) {
  auto& q = *workers_[self];
  std::lock_guard<std::mutex> lock(q.mutex);
  if (q.jobs.empty()) return false;
  out = std::move(q.jobs.front());
  q.jobs.pop_front();
  return true;
}

bool ThreadPool::steal(std::size_t self, Job& out) {
  const std::size_t n = workers_.size();
  for (std::size_t step = 1; step < n; ++step) {
    auto& victim = *workers_[(self + step) % n];
    std::lock_guard<std::mutex> lock(victim.mutex);
    if (victim.jobs.empty()) continue;
    out = std::move(victim.jobs.back());
    victim.jobs.pop_back();
    stolen_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

void ThreadPool::run_job(Job& job) {
  const auto start = std::chrono::steady_clock::now();
  try {
    job();
  } catch (...) {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  latency_.record(std::chrono::steady_clock::now() - start);
  executed_.fetch_add(1, std::memory_order_relaxed);
}

void ThreadPool::worker_loop(std::size_t self) {
  tl_on_worker = true;
  for (;;) {
    Job job;
    if (pop_local(self, job) || steal(self, job)) {
      {
        std::lock_guard<std::mutex> lock(state_mutex_);
        --queued_;
        ++running_;
      }
      space_available_.notify_one();
      run_job(job);
      job = nullptr;  // release captures before signalling idle
      bool now_idle = false;
      {
        std::lock_guard<std::mutex> lock(state_mutex_);
        --running_;
        now_idle = queued_ == 0 && running_ == 0;
      }
      if (now_idle) idle_.notify_all();
      continue;
    }
    std::unique_lock<std::mutex> lock(state_mutex_);
    if (stopping_ && queued_ == 0) return;
    work_available_.wait(lock, [this] { return queued_ > 0 || stopping_; });
    if (stopping_ && queued_ == 0) return;
  }
}

}  // namespace adc::runtime
