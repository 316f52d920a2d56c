#include "runtime/heartbeat.hpp"

#include <chrono>
#include <utility>

namespace adc::runtime {

std::uint64_t wall_clock_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

Heartbeat::Heartbeat(std::uint64_t interval_ms, std::function<void()> beat)
    : interval_ms_(interval_ms), beat_(std::move(beat)) {
  thread_ = std::thread([this] { loop(); });
}

Heartbeat::~Heartbeat() { stop(); }

void Heartbeat::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void Heartbeat::rethrow_error() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (error_) std::rethrow_exception(error_);
}

void Heartbeat::loop() {
  const auto interval = std::chrono::milliseconds(interval_ms_);
  std::unique_lock<std::mutex> lock(mutex_);
  while (!cv_.wait_for(lock, interval, [this] { return stop_; })) {
    lock.unlock();
    std::exception_ptr error;
    try {
      beat_();
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error && !error_) error_ = error;
  }
}

}  // namespace adc::runtime
