/// \file cli.hpp
/// Option parsing shared by the command-line tools.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "runtime/parallel.hpp"

namespace adc::tools {

/// Thrown for a usage error: the tool's main prints it with the usage text
/// and exits 2.
struct UsageError {
  std::string message;
};

[[noreturn]] inline void usage_error(std::string message) { throw UsageError{message}; }

/// The value of option args[i]; advances i past it.
inline std::string take_value(const std::vector<std::string>& args, std::size_t& i) {
  if (i + 1 >= args.size()) usage_error("missing value for " + args[i]);
  return args[++i];
}

/// `text`, the value of numeric option `flag`, when std::from_chars reads
/// all of it (and a floating value is finite). Anything else ("", "4x",
/// "O.9", "nan", "-1" for an unsigned T) is a usage error, never 0.
template <typename T>
T number(const std::string& flag, std::string_view text) {
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  bool ok = ec == std::errc{} && ptr == text.data() + text.size();
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) usage_error(flag + " expects a number, got \"" + std::string(text) + "\"");
  return value;
}

/// `text`, the value of `--threads`: runtime::parse_thread_count's rule.
inline unsigned thread_count(std::string_view text) {
  if (const auto threads = adc::runtime::parse_thread_count(text)) return *threads;
  usage_error("--threads expects 1.." + std::to_string(adc::runtime::kMaxThreads) +
              ", got \"" + std::string(text) + "\"");
}

/// The most worker processes `adc_fleet run --workers` forks at once. Each
/// worker is a whole simulator process with its own thread pool, so past a
/// host's cores more workers only contend; the bound stops a mistyped count
/// from forking thousands.
inline constexpr unsigned kMaxWorkers = 64;

/// `text`, the value of `--workers`: a whole decimal in 1..kMaxWorkers.
inline unsigned worker_count(std::string_view text) {
  const auto workers = number<unsigned>("--workers", text);
  if (workers < 1 || workers > kMaxWorkers) {
    usage_error("--workers expects 1.." + std::to_string(kMaxWorkers) + ", got " +
                std::string(text));
  }
  return workers;
}

/// The longest `--poll-ms` bound on a fleet worker's wait (ten minutes).
/// The bound is an int timeout of poll(2), and a blocked worker with a zero
/// bound would spin on probes.
inline constexpr std::uint64_t kMaxPollMs = 600000;

/// `text`, the value of `--poll-ms`: a whole decimal in 1..kMaxPollMs.
inline std::uint64_t poll_bound(std::string_view text) {
  const auto poll_ms = number<std::uint64_t>("--poll-ms", text);
  if (poll_ms < 1 || poll_ms > kMaxPollMs) {
    usage_error("--poll-ms expects 1.." + std::to_string(kMaxPollMs) + ", got " +
                std::string(text));
  }
  return poll_ms;
}

}  // namespace adc::tools
