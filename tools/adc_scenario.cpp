/// \file adc_scenario.cpp
/// CLI front-end of the scenario engine (src/scenario/).
///
///   adc_scenario run <spec.json>... [--cache-dir D] [--report-dir D]
///                                   [--threads N] [--max-jobs N]
///                                   [--no-cache] [--min-hit-rate F]
///   adc_scenario validate <spec.json>...
///   adc_scenario hash <spec.json>
///   adc_scenario cache stats [--cache-dir D] [--format=text|json]
///   adc_scenario cache clear [--cache-dir D] [--stale [--lease-ms N]]
///   adc_scenario client submit <spec.json> --socket S [--report-dir D] ...
///   adc_scenario client status|shutdown --socket S
///
/// The `client` command talks to a running adc_scenariod over its Unix
/// socket (docs/SERVICE.md); `client submit` streams cell events and writes
/// the same report files as `run` — byte-identical for the same spec.
///
/// Exit status: 0 on success, 1 on any validation/run failure (including an
/// unmet --min-hit-rate), 2 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "runtime/heartbeat.hpp"
#include "scenario/cache.hpp"
#include "scenario/claims.hpp"
#include "scenario/hash.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "service/protocol.hpp"
#include "service/socket.hpp"

namespace {

namespace json = adc::common::json;
using namespace adc::scenario;

void print_usage() {
  std::printf(
      "usage: adc_scenario <command> ...\n"
      "  run <spec.json>...       expand, execute (cache-aware) and report\n"
      "      --cache-dir D        cache root (default: ADC_SCENARIO_CACHE_DIR or .adc-cache)\n"
      "      --report-dir D       write <name>_report.{json,csv} into D\n"
      "      --threads N          worker threads (default: runtime resolution)\n"
      "      --max-jobs N         compute at most N cache misses (interruption budget)\n"
      "      --no-cache           force recomputation; nothing read or stored\n"
      "      --min-hit-rate F     fail (exit 1) when cache hits / jobs < F\n"
      "      --print-metrics      print per-job metric rows\n"
      "  validate <spec.json>...  parse + validate only\n"
      "  hash <spec.json>         print the spec hash and every job hash\n"
      "  cache stats|clear [--cache-dir D]\n"
      "      --format=text|json   stats output format (default text)\n"
      "      --stale              clear: remove only orphaned .tmp files and\n"
      "                           claims staler than --lease-ms (default %llu)\n"
      "  client submit <spec.json> --socket S\n"
      "      --report-dir D       write <name>_report.{json,csv} into D\n"
      "      --max-jobs N         server computes at most N cache misses\n"
      "      --min-hit-rate F     fail (exit 1) when cache hits / jobs < F\n"
      "      --cancel-after N     send cancel after N streamed cells\n"
      "      --id ID              request id (default: the scenario name)\n"
      "      --print-events       echo every raw server event line\n"
      "  client status --socket S    print the server status document\n"
      "  client shutdown --socket S  ask the server to stop\n",
      static_cast<unsigned long long>(kClaimLeaseMs));
}

struct CliError {
  int exit_code;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "adc_scenario: %s\n", message.c_str());
  print_usage();
  throw CliError{2};
}

std::string take_value(const std::vector<std::string>& args, std::size_t& i) {
  if (i + 1 >= args.size()) usage_error("missing value for " + args[i]);
  return args[++i];
}

int run_command(const std::vector<std::string>& args) {
  RunOptions options;
  double min_hit_rate = -1.0;
  bool print_metrics = false;
  std::vector<std::string> spec_paths;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--cache-dir") {
      options.cache_dir = take_value(args, i);
    } else if (arg == "--report-dir") {
      options.report_dir = take_value(args, i);
    } else if (arg == "--threads") {
      options.threads = static_cast<unsigned>(std::strtoul(take_value(args, i).c_str(),
                                                           nullptr, 10));
    } else if (arg == "--max-jobs") {
      options.max_jobs = std::strtoull(take_value(args, i).c_str(), nullptr, 10);
    } else if (arg == "--no-cache") {
      options.use_cache = false;
    } else if (arg == "--min-hit-rate") {
      min_hit_rate = std::strtod(take_value(args, i).c_str(), nullptr);
    } else if (arg == "--print-metrics") {
      print_metrics = true;
    } else if (!arg.empty() && arg[0] == '-') {
      usage_error("unknown option " + arg);
    } else {
      spec_paths.push_back(arg);
    }
  }
  if (spec_paths.empty()) usage_error("run: no spec files given");

  ScenarioRunner runner(options);
  bool ok = true;
  for (const auto& path : spec_paths) {
    const auto spec = load_spec_file(path);
    const auto result = runner.run(spec);
    const double hit_rate =
        result.jobs_total == 0
            ? 1.0
            : static_cast<double>(result.cache_hits) / static_cast<double>(result.jobs_total);
    std::printf("scenario %s: %zu jobs, %zu cache hits (%.1f%%), %zu computed, %zu skipped\n",
                spec.name.c_str(), result.jobs_total, result.cache_hits, 100.0 * hit_rate,
                result.computed, result.skipped);
    if (!result.report_json_path.empty()) {
      std::printf("  report: %s\n", result.report_json_path.c_str());
    }
    if (result.manifest_path.has_value()) {
      std::printf("  manifest: %s\n", result.manifest_path->c_str());
    }
    if (const auto* summary = result.report.find("summary")) {
      std::printf("  summary: %s\n", json::dump_compact(*summary).c_str());
    }
    if (print_metrics || result.jobs_total == 1) {
      for (const auto& row : result.report.find("results")->items()) {
        const auto* metrics = row.find("metrics");
        std::printf("  seed %llu point %s -> %s\n",
                    static_cast<unsigned long long>(row.find("seed")->as_uint64()),
                    json::dump_compact(*row.find("point")).c_str(),
                    metrics->is_null() ? "(not computed)"
                                       : json::dump_compact(*metrics).c_str());
      }
    }
    if (min_hit_rate >= 0.0 && hit_rate < min_hit_rate) {
      std::fprintf(stderr, "adc_scenario: %s hit rate %.3f below required %.3f\n",
                   spec.name.c_str(), hit_rate, min_hit_rate);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}

int validate_command(const std::vector<std::string>& args) {
  if (args.empty()) usage_error("validate: no spec files given");
  int failures = 0;
  for (const auto& path : args) {
    try {
      const auto spec = load_spec_file(path);
      const auto jobs = expand_jobs(spec);
      std::printf("%s: OK (name=%s, measurement=%s, %zu jobs)\n", path.c_str(),
                  spec.name.c_str(), std::string(to_string(spec.measurement.type)).c_str(),
                  jobs.size());
    } catch (const adc::common::AdcError& e) {
      std::fprintf(stderr, "%s: INVALID: %s\n", path.c_str(), e.what());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

int hash_command(const std::vector<std::string>& args) {
  if (args.size() != 1) usage_error("hash: expected exactly one spec file");
  const auto spec = load_spec_file(args[0]);
  const auto jobs = expand_jobs(spec);
  std::printf("spec_hash   %s\n", spec_hash(spec).c_str());
  std::printf("fingerprint %s\n", to_hex(golden_code_fingerprint()).c_str());
  std::printf("jobs        %zu\n", jobs.size());
  for (const auto& job : jobs) {
    const auto resolved = resolve_job(spec, job);
    std::printf("  %s  %s\n", job_hash(resolved).c_str(),
                json::canonical(job_document(resolved)).c_str());
  }
  return 0;
}

int cache_command(const std::vector<std::string>& args) {
  if (args.empty()) usage_error("cache: expected stats or clear");
  std::string root;
  std::string format = "text";
  bool stale_only = false;
  std::uint64_t lease_ms = kClaimLeaseMs;
  for (std::size_t i = 1; i < args.size(); ++i) {
    if (args[i] == "--cache-dir") {
      std::size_t j = i;
      root = take_value(args, j);
      ++i;
    } else if (args[i] == "--format") {
      std::size_t j = i;
      format = take_value(args, j);
      ++i;
    } else if (args[i].rfind("--format=", 0) == 0) {
      format = args[i].substr(std::string("--format=").size());
    } else if (args[i] == "--stale") {
      stale_only = true;
    } else if (args[i] == "--lease-ms") {
      std::size_t j = i;
      lease_ms = std::strtoull(take_value(args, j).c_str(), nullptr, 10);
      ++i;
    } else {
      usage_error("unknown option " + args[i]);
    }
  }
  if (format != "text" && format != "json") {
    usage_error("cache: --format must be text or json, got \"" + format + "\"");
  }
  ResultCache cache(root);
  if (args[0] == "stats") {
    if (format == "json") {
      std::printf("%s", json::dump(cache.stats_document()).c_str());
      return 0;
    }
    const auto stats = cache.stats();
    std::printf("cache_dir %s\nentries %llu\nbytes %llu\n", cache.root().c_str(),
                static_cast<unsigned long long>(stats.entries),
                static_cast<unsigned long long>(stats.bytes));
    if (stats.tmp_files != 0 || stats.claim_files != 0) {
      std::printf("tmp_files %llu (orphaned store temporaries)\n"
                  "claim_files %llu (fleet claims; stale ones are litter)\n",
                  static_cast<unsigned long long>(stats.tmp_files),
                  static_cast<unsigned long long>(stats.claim_files));
      std::printf("hint: `adc_scenario cache clear --stale` reclaims orphans\n");
    }
    return 0;
  }
  if (args[0] == "clear") {
    if (stale_only) {
      const auto sweep = cache.clear_stale(adc::runtime::wall_clock_ms(), lease_ms);
      std::printf("removed %llu orphaned tmp files and %llu stale claims from %s\n",
                  static_cast<unsigned long long>(sweep.tmp_removed),
                  static_cast<unsigned long long>(sweep.claims_removed),
                  cache.root().c_str());
      return 0;
    }
    const auto removed = cache.clear();
    std::printf("cleared %llu entries from %s\n",
                static_cast<unsigned long long>(removed), cache.root().c_str());
    return 0;
  }
  usage_error("cache: unknown subcommand " + args[0]);
}

// ---------------------------------------------------------------------------
// `client` — talk to a running adc_scenariod (docs/SERVICE.md).

namespace service = adc::service;

/// Read server events until one of type `wanted` arrives; error events are
/// fatal (printed, CliError{1}). A closed connection is fatal too.
json::JsonValue await_event(service::UnixStream& stream, const std::string& wanted) {
  std::string line;
  for (;;) {
    const auto status = stream.read_line(line, -1);
    if (status != service::UnixStream::ReadStatus::kLine) {
      std::fprintf(stderr, "adc_scenario: server closed the connection\n");
      throw CliError{1};
    }
    const auto event = json::parse(line);
    const std::string type = service::event_type(event);
    if (type == wanted) return event;
    if (type == "error") {
      std::fprintf(stderr, "adc_scenario: server error [%s]: %s\n",
                   event.find("code")->as_string().c_str(),
                   event.find("message")->as_string().c_str());
      throw CliError{1};
    }
  }
}

int client_submit(const std::vector<std::string>& args) {
  std::string spec_path;
  std::string socket_path;
  std::string report_dir;
  std::string request_id;
  std::uint64_t max_jobs = 0;
  std::uint64_t cancel_after = 0;
  bool cancel_requested = false;
  double min_hit_rate = -1.0;
  bool print_events = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--socket") {
      socket_path = take_value(args, i);
    } else if (arg == "--report-dir") {
      report_dir = take_value(args, i);
    } else if (arg == "--id") {
      request_id = take_value(args, i);
    } else if (arg == "--max-jobs") {
      max_jobs = std::strtoull(take_value(args, i).c_str(), nullptr, 10);
    } else if (arg == "--cancel-after") {
      cancel_after = std::strtoull(take_value(args, i).c_str(), nullptr, 10);
      cancel_requested = true;
    } else if (arg == "--min-hit-rate") {
      min_hit_rate = std::strtod(take_value(args, i).c_str(), nullptr);
    } else if (arg == "--print-events") {
      print_events = true;
    } else if (!arg.empty() && arg[0] == '-') {
      usage_error("unknown option " + arg);
    } else if (spec_path.empty()) {
      spec_path = arg;
    } else {
      usage_error("client submit: expected exactly one spec file");
    }
  }
  if (spec_path.empty()) usage_error("client submit: no spec file given");
  if (socket_path.empty()) usage_error("client submit: --socket is required");

  // Validate locally first: a bad spec fails fast with the full parser
  // diagnostics, naming the file, instead of a one-line protocol error.
  const auto spec = load_spec_file(spec_path);
  if (request_id.empty()) request_id = spec.name;

  auto stream = service::UnixStream::connect(socket_path);
  (void)await_event(stream, "hello");

  auto request = json::JsonValue::object();
  request.set("type", "run");
  request.set("id", request_id);
  request.set("spec", spec.raw);
  if (max_jobs != 0) {
    auto options = json::JsonValue::object();
    options.set("max_jobs", max_jobs);
    request.set("options", std::move(options));
  }
  if (!stream.write_line(json::dump_compact(request))) {
    std::fprintf(stderr, "adc_scenario: cannot reach server at %s\n",
                 socket_path.c_str());
    return 1;
  }

  std::uint64_t cells_seen = 0;
  bool cancel_sent = false;
  std::string line;
  for (;;) {
    const auto status = stream.read_line(line, -1);
    if (status != service::UnixStream::ReadStatus::kLine) {
      std::fprintf(stderr, "adc_scenario: server closed the connection\n");
      return 1;
    }
    const auto event = json::parse(line);
    const std::string type = service::event_type(event);
    if (print_events) std::printf("%s\n", line.c_str());
    if (type == "cell") {
      ++cells_seen;
      if (cancel_requested && !cancel_sent && cells_seen >= cancel_after) {
        auto cancel = json::JsonValue::object();
        cancel.set("type", "cancel");
        cancel.set("id", request_id);
        (void)stream.write_line(json::dump_compact(cancel));
        cancel_sent = true;
      }
      continue;
    }
    if (type == "cancelled") {
      std::printf("scenario %s: cancelled after %llu delivered cells\n",
                  spec.name.c_str(),
                  static_cast<unsigned long long>(
                      event.find("delivered")->as_uint64()));
      return 0;
    }
    if (type == "error") {
      std::fprintf(stderr, "adc_scenario: server error [%s]: %s\n",
                   event.find("code")->as_string().c_str(),
                   event.find("message")->as_string().c_str());
      return 1;
    }
    if (type != "summary") continue;  // accepted / unknown future events

    const std::uint64_t jobs = event.find("jobs")->as_uint64();
    const std::uint64_t hits = event.find("cache_hits")->as_uint64();
    const std::uint64_t deduped = event.find("deduped")->as_uint64();
    const std::uint64_t computed = event.find("computed")->as_uint64();
    const std::uint64_t skipped = event.find("skipped")->as_uint64();
    const double hit_rate =
        jobs == 0 ? 1.0 : static_cast<double>(hits) / static_cast<double>(jobs);
    std::printf(
        "scenario %s: %llu jobs, %llu cache hits (%.1f%%), %llu deduped, "
        "%llu computed, %llu skipped\n",
        spec.name.c_str(), static_cast<unsigned long long>(jobs),
        static_cast<unsigned long long>(hits), 100.0 * hit_rate,
        static_cast<unsigned long long>(deduped),
        static_cast<unsigned long long>(computed),
        static_cast<unsigned long long>(skipped));
    if (!report_dir.empty()) {
      const ReportPaths paths =
          write_report_files(*event.find("report"), spec.name, report_dir, 0);
      std::printf("  report: %s\n", paths.json_path.c_str());
    }
    if (min_hit_rate >= 0.0 && hit_rate < min_hit_rate) {
      std::fprintf(stderr, "adc_scenario: %s hit rate %.3f below required %.3f\n",
                   spec.name.c_str(), hit_rate, min_hit_rate);
      return 1;
    }
    return 0;
  }
}

int client_command(const std::vector<std::string>& args) {
  if (args.empty()) usage_error("client: expected submit, status, or shutdown");
  const std::string sub = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  if (sub == "submit") return client_submit(rest);
  if (sub != "status" && sub != "shutdown") {
    usage_error("client: unknown subcommand " + sub);
  }

  std::string socket_path;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    if (rest[i] == "--socket") {
      socket_path = take_value(rest, i);
    } else {
      usage_error("unknown option " + rest[i]);
    }
  }
  if (socket_path.empty()) usage_error("client " + sub + ": --socket is required");

  auto stream = service::UnixStream::connect(socket_path);
  (void)await_event(stream, "hello");
  auto request = json::JsonValue::object();
  request.set("type", sub);
  if (!stream.write_line(json::dump_compact(request))) {
    std::fprintf(stderr, "adc_scenario: cannot reach server at %s\n",
                 socket_path.c_str());
    return 1;
  }
  if (sub == "status") {
    std::printf("%s", json::dump(await_event(stream, "status")).c_str());
  } else {
    (void)await_event(stream, "bye");
    std::printf("server at %s is shutting down\n", socket_path.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.empty()) usage_error("no command given");
    const std::string command = args[0];
    const std::vector<std::string> rest(args.begin() + 1, args.end());
    if (command == "run") return run_command(rest);
    if (command == "validate") return validate_command(rest);
    if (command == "hash") return hash_command(rest);
    if (command == "cache") return cache_command(rest);
    if (command == "client") return client_command(rest);
    if (command == "--help" || command == "help") {
      print_usage();
      return 0;
    }
    usage_error("unknown command " + command);
  } catch (const CliError& e) {
    return e.exit_code;
  } catch (const adc::common::AdcError& e) {
    std::fprintf(stderr, "adc_scenario: %s\n", e.what());
    return 1;
  }
}
