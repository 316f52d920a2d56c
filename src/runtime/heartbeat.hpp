/// \file heartbeat.hpp
/// The wall clock and periodic wake of lease-based coordination.
///
/// Cache claims (scenario/claims.hpp) carry a wall-clock heartbeat that
/// their holder re-stamps well inside the lease. The clock read and the
/// background thread that wakes to re-stamp live here, in the telemetry
/// layer that owns clocks, so src/scenario stays free of clock reads (the
/// determinism lint) and only ever sees timestamps as plain numbers.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>

namespace adc::runtime {

/// Wall-clock milliseconds since the Unix epoch: the claim heartbeat clock,
/// comparable across processes on one host.
[[nodiscard]] std::uint64_t wall_clock_ms();

/// Calls `beat` on its own thread every `interval_ms` (the first call one
/// interval after construction) until stop() or destruction. An exception
/// thrown by `beat` is kept (the first one) and the beats go on;
/// rethrow_error() raises it on the caller's thread.
class Heartbeat {
 public:
  Heartbeat(std::uint64_t interval_ms, std::function<void()> beat);
  ~Heartbeat();

  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  /// Stop beating and join the thread; a beat in progress finishes first.
  /// Idempotent.
  void stop();

  /// Rethrow the first error a beat threw, if any.
  void rethrow_error();

 private:
  void loop();

  const std::uint64_t interval_ms_;
  const std::function<void()> beat_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::exception_ptr error_;
  std::thread thread_;
};

}  // namespace adc::runtime
