/// \file adc_scenariod.cpp
/// The scenario service daemon (src/service/).
///
///   adc_scenariod --socket PATH [--cache-dir D] [--max-inflight N]
///                 [--max-requests N]
///
/// Binds PATH as a Unix-domain socket and serves the newline-delimited JSON
/// protocol of docs/SERVICE.md until SIGINT/SIGTERM or a client `shutdown`
/// request. Exit status: 0 on a clean shutdown, 1 on a startup failure
/// (unwritable cache root, unbindable socket), 2 on usage errors (a count
/// that does not parse whole, an admission bound of 0).
#include <poll.h>

#include <csignal>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "cli.hpp"
#include "common/error.hpp"
#include "service/server.hpp"

namespace {

void print_usage() {
  std::printf(
      "usage: adc_scenariod --socket PATH [options]\n"
      "  --socket PATH      Unix-domain socket to listen on (required)\n"
      "  --cache-dir D      cache root (default: ADC_SCENARIO_CACHE_DIR or .adc-cache)\n"
      "  --max-inflight N   concurrently computing cells per connection (default 4)\n"
      "  --max-requests N   simultaneously active requests per connection (default 8)\n");
}

std::sig_atomic_t volatile g_signalled = 0;

void on_signal(int) { g_signalled = 1; }

}  // namespace

int main(int argc, char** argv) {
  using adc::tools::take_value;
  const std::vector<std::string> args(argv + 1, argv + argc);
  adc::service::ServiceOptions options;
  std::optional<adc::service::ScenarioService> service;
  std::string usage_failure;
  try {
    for (std::size_t i = 0; i < args.size(); ++i) {
      const std::string& arg = args[i];
      if (arg == "--socket") {
        options.socket_path = take_value(args, i);
      } else if (arg == "--cache-dir") {
        options.cache_dir = take_value(args, i);
      } else if (arg == "--max-inflight") {
        options.max_inflight_per_connection =
            adc::tools::number<std::size_t>(arg, take_value(args, i));
      } else if (arg == "--max-requests") {
        options.max_requests_per_connection =
            adc::tools::number<std::size_t>(arg, take_value(args, i));
      } else if (arg == "--help") {
        print_usage();
        return 0;
      } else {
        adc::tools::usage_error("unknown option " + arg);
      }
    }
    if (options.socket_path.empty()) adc::tools::usage_error("--socket is required");
    service.emplace(std::move(options));
  } catch (const adc::tools::UsageError& e) {
    usage_failure = e.message;
  } catch (const adc::common::ConfigError& e) {
    // The constructor rejects unusable options (admission bounds of 0).
    usage_failure = e.what();
  }
  if (!service) {
    std::fprintf(stderr, "adc_scenariod: %s\n", usage_failure.c_str());
    print_usage();
    return 2;
  }
  try {
    service->start();
  } catch (const adc::common::AdcError& e) {
    std::fprintf(stderr, "adc_scenariod: %s\n", e.what());
    return 1;
  }
  std::printf("adc_scenariod: listening on %s (cache %s)\n",
              service->socket_path().c_str(), service->cache_root().c_str());
  std::fflush(stdout);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  while (g_signalled == 0 && !service->shutdown_requested()) {
    // Sleep via poll so signals interrupt the wait immediately.
    ::poll(nullptr, 0, 200);
  }
  std::printf("adc_scenariod: shutting down\n");
  service->stop();
  return 0;
}
