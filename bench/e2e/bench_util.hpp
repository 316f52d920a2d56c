/// \file bench_util.hpp
/// Small helpers shared by the end-to-end benchmark: clocks, the
/// order statistics every metric is reported with, report digests, and
/// child processes of the benchmark itself.
#pragma once

#include <sys/resource.h>
#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace adc_bench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}
/// ns since the steady clock's epoch. The clock is system-wide, so stamps
/// from the benchmark's processes line up.
[[nodiscard]] inline std::int64_t to_ns(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}
[[nodiscard]] inline std::int64_t now_ns() { return to_ns(Clock::now()); }

/// Pool width of a workload process: min(4, nproc). The fleet workload
/// splits it between its two workers.
[[nodiscard]] inline unsigned bench_threads() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

/// Median and quartiles of a sample set. q1/q3 follow Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads printed here are the ones compare.py recomputes.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};
[[nodiscard]] Summary summarize(std::vector<double> values);

/// Linear-interpolated percentile `p` in [0, 1]; 0 for an empty set.
[[nodiscard]] double percentile(std::vector<double> values, double p);

/// A percentile is only meaningful when at least ten samples lie beyond it.
[[nodiscard]] inline bool percentile_resolved(std::size_t n, double p) {
  return static_cast<double>(n) * (1.0 - p) >= 10.0;
}

/// The report digest: the cache's 64-bit FNV-1a of a byte string, as 16
/// hex digits.
[[nodiscard]] std::string digest(std::string_view bytes);

[[nodiscard]] std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& text);

/// A child process of this benchmark (the same executable, re-executed with
/// other arguments). Killed and reaped on destruction if still running, so
/// no process outlives the object that started it.
class Child {
 public:
  Child() = default;
  ~Child();
  Child(Child&& other) noexcept : pid_(std::exchange(other.pid_, -1)) {}
  Child& operator=(Child&& other) = delete;
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Spawn `/proc/self/exe args...` with `env` added to the environment.
  /// When `ready_fd` >= 0 it is passed to the child as descriptor kReadyFd.
  [[nodiscard]] static Child spawn(const std::vector<std::string>& args,
                                   const std::vector<std::pair<std::string, std::string>>& env,
                                   int ready_fd = -1);

  struct Exit {
    int status = -1;        ///< exit code, or -1 when killed by a signal
    rusage usage{};         ///< the child's tree, from wait4
  };
  /// Wait for the child to exit.
  Exit wait();

 private:
  explicit Child(pid_t pid) : pid_(pid) {}
  pid_t pid_ = -1;
};

/// A pipe whose read end waits for a one-byte "ready" signal from a child.
class ReadyPipe {
 public:
  ReadyPipe();
  ~ReadyPipe();
  ReadyPipe(const ReadyPipe&) = delete;
  ReadyPipe& operator=(const ReadyPipe&) = delete;

  [[nodiscard]] int write_end() const { return fds_[1]; }
  /// Close our copy of the write end (after spawning), so a child that dies
  /// before signalling shows up as end-of-file instead of a hang.
  void close_write_end();
  /// Block until the child signals; false when it exited without doing so.
  bool wait_ready();

 private:
  int fds_[2] = {-1, -1};
};

/// Descriptor number a spawned child finds its ready pipe on.
inline constexpr int kReadyFd = 3;

/// Called by a child once it is ready: writes the byte to `fd` and closes
/// it (no-op for fd < 0, a child started without a ready pipe).
void signal_ready(int fd);

}  // namespace adc_bench
