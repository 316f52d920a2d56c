/// \file adc_fleet.cpp
/// CLI front-end of the fleet engine (src/fleet/): sharded multi-process
/// sweeps over a shared content-addressed cache.
///
///   adc_fleet run <spec.json> --workers N [--cache-dir D] [--report-dir D]
///                             [--lease-ms N] [--poll-ms N] [--threads N]
///                             [--max-jobs N] [--min-hit-rate F]
///       fork N local workers (shards 0..N-1), wait for them, merge.
///   adc_fleet worker <spec.json> --shard k/W [--cache-dir D] [--owner ID]
///                             [--lease-ms N] [--poll-ms N] [--threads N]
///                             [--max-jobs N] [--quiet]
///       run one worker process (one machine of a multi-machine fleet).
///   adc_fleet merge <spec.json> --shards W [--cache-dir D] [--report-dir D]
///                             [--min-hit-rate F]
///       merge a finished fleet's results into the single report.
///   adc_fleet status <spec.json> [--cache-dir D] [--lease-ms N]
///       show grid completion and outstanding claims (live vs stale).
///
/// The merged report is byte-identical to `adc_scenario run` of the same
/// spec (docs/FLEET.md). Exit status: 0 on success, 1 on failure (worker
/// died, merge incomplete, --min-hit-rate unmet), 2 on usage errors.
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "fleet/manifest.hpp"
#include "fleet/merge.hpp"
#include "fleet/plan.hpp"
#include "fleet/worker.hpp"
#include "scenario/claims.hpp"
#include "scenario/spec.hpp"

namespace {

namespace json = adc::common::json;

void print_usage() {
  std::printf(
      "usage: adc_fleet <command> <spec.json> ...\n"
      "  run     --workers N       fork N local workers, wait, merge\n"
      "  worker  --shard k/W       run one worker (shard k of W)\n"
      "  merge   --shards W        merge manifests + cache into one report\n"
      "  status                    show completion and outstanding claims\n"
      "common options:\n"
      "  --cache-dir D     shared cache root (default: ADC_SCENARIO_CACHE_DIR\n"
      "                    or .adc-cache)\n"
      "  --report-dir D    run/merge: write <name>_report.{json,csv} into D\n"
      "  --lease-ms N      claim lease; staler claims are stolen (default %llu)\n"
      "  --poll-ms N       sleep between probes while blocked (default 50)\n"
      "  --threads N       worker threads per process (default: runtime)\n"
      "  --max-jobs N      worker computes at most N jobs (budget)\n"
      "  --owner ID        claim owner id (default <host>:<pid>)\n"
      "  --min-hit-rate F  run/merge: fail when any worker's warm-hit\n"
      "                    fraction is below F (resume health gate)\n"
      "  --quiet           worker: no per-round progress lines\n",
      static_cast<unsigned long long>(adc::scenario::kClaimLeaseMs));
}

struct CliError {
  int exit_code;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "adc_fleet: %s\n", message.c_str());
  print_usage();
  throw CliError{2};
}

std::string take_value(const std::vector<std::string>& args, std::size_t& i) {
  if (i + 1 >= args.size()) usage_error("missing value for " + args[i]);
  return args[++i];
}

/// Shared option bag for every subcommand; each ignores what it doesn't use.
struct FleetCli {
  std::string spec_path;
  std::string cache_dir;
  std::string report_dir;
  unsigned workers = 0;
  unsigned shard = 0;
  unsigned shards = 0;
  bool shard_given = false;
  std::string owner;
  std::uint64_t lease_ms = adc::scenario::kClaimLeaseMs;
  std::uint64_t poll_ms = 50;
  unsigned threads = 0;
  std::size_t max_jobs = 0;
  double min_hit_rate = -1.0;
  bool quiet = false;
};

FleetCli parse_cli(const std::vector<std::string>& args) {
  FleetCli cli;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--cache-dir") {
      cli.cache_dir = take_value(args, i);
    } else if (arg == "--report-dir") {
      cli.report_dir = take_value(args, i);
    } else if (arg == "--workers") {
      cli.workers = static_cast<unsigned>(
          std::strtoul(take_value(args, i).c_str(), nullptr, 10));
    } else if (arg == "--shards") {
      cli.shards = static_cast<unsigned>(
          std::strtoul(take_value(args, i).c_str(), nullptr, 10));
    } else if (arg == "--shard") {
      const std::string value = take_value(args, i);
      const auto slash = value.find('/');
      if (slash == std::string::npos) usage_error("--shard expects k/W, got " + value);
      cli.shard = static_cast<unsigned>(
          std::strtoul(value.substr(0, slash).c_str(), nullptr, 10));
      cli.shards = static_cast<unsigned>(
          std::strtoul(value.substr(slash + 1).c_str(), nullptr, 10));
      cli.shard_given = true;
    } else if (arg == "--owner") {
      cli.owner = take_value(args, i);
    } else if (arg == "--lease-ms") {
      cli.lease_ms = std::strtoull(take_value(args, i).c_str(), nullptr, 10);
    } else if (arg == "--poll-ms") {
      cli.poll_ms = std::strtoull(take_value(args, i).c_str(), nullptr, 10);
    } else if (arg == "--threads") {
      cli.threads = static_cast<unsigned>(
          std::strtoul(take_value(args, i).c_str(), nullptr, 10));
    } else if (arg == "--max-jobs") {
      cli.max_jobs = std::strtoull(take_value(args, i).c_str(), nullptr, 10);
    } else if (arg == "--min-hit-rate") {
      cli.min_hit_rate = std::strtod(take_value(args, i).c_str(), nullptr);
    } else if (arg == "--quiet") {
      cli.quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      usage_error("unknown option " + arg);
    } else if (cli.spec_path.empty()) {
      cli.spec_path = arg;
    } else {
      usage_error("expected exactly one spec file");
    }
  }
  if (cli.spec_path.empty()) usage_error("no spec file given");
  return cli;
}

adc::fleet::WorkerOptions worker_options(const FleetCli& cli) {
  adc::fleet::WorkerOptions options;
  options.cache_dir = cli.cache_dir;
  options.shards = cli.shards;
  options.shard = cli.shard;
  options.owner = cli.owner;
  options.lease_ms = cli.lease_ms;
  options.poll_ms = cli.poll_ms;
  options.threads = cli.threads;
  options.max_jobs = cli.max_jobs;
  return options;
}

/// Per-round progress printer with a simple throughput-based ETA.
class ProgressPrinter {
 public:
  ProgressPrinter(unsigned shard, unsigned shards)
      : shard_(shard), shards_(shards),
        start_(std::chrono::steady_clock::now()) {}

  void operator()(const adc::fleet::WorkerProgress& p) const {
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
    std::string eta = "--";
    const std::size_t remaining = p.total - p.done;
    if (p.computed > 0 && remaining > 0 && elapsed > 0) {
      const double per_job = static_cast<double>(elapsed) /
                             static_cast<double>(p.computed);
      eta = std::to_string(
                static_cast<long long>(per_job * static_cast<double>(remaining) /
                                       1000.0)) +
            "s";
    }
    std::fprintf(stderr,
                 "shard %u/%u%s: %zu/%zu done (%zu hit, %zu computed, %zu "
                 "elsewhere) eta %s\n",
                 shard_, shards_, p.scavenging ? " [scavenge]" : "", p.done,
                 p.total, p.cache_hits, p.computed, p.elsewhere, eta.c_str());
  }

 private:
  unsigned shard_;
  unsigned shards_;
  std::chrono::steady_clock::time_point start_;
};

void print_worker_summary(const adc::fleet::WorkerResult& result) {
  const auto& m = result.manifest;
  std::printf(
      "shard %u/%u (%s): %zu shard jobs, %zu grid hits, %zu computed "
      "(%zu scavenged), %zu elsewhere, %zu skipped, %llu pool jobs%s\n",
      m.shard, m.shards, m.owner.c_str(), m.shard_jobs, m.cache_hits, m.computed,
      m.scavenged, m.elsewhere, m.skipped,
      static_cast<unsigned long long>(m.pool_jobs),
      m.complete ? "" : " [incomplete]");
  std::printf("  manifest: %s\n", result.manifest_path.c_str());
}

int check_hit_rate(double min_hit_rate, const adc::fleet::MergeResult& merged) {
  if (min_hit_rate >= 0.0 && merged.min_hit_rate < min_hit_rate) {
    std::fprintf(stderr,
                 "adc_fleet: worker warm-hit rate %.3f below required %.3f\n",
                 merged.min_hit_rate, min_hit_rate);
    return 1;
  }
  return 0;
}

void print_merge_summary(const adc::fleet::MergeResult& merged,
                         const std::string& scenario) {
  std::printf("fleet %s: %zu jobs merged from %zu shard manifests, min warm-hit "
              "rate %.3f\n",
              scenario.c_str(), merged.jobs_total, merged.manifests.size(),
              merged.min_hit_rate);
  if (!merged.report_json_path.empty()) {
    std::printf("  report: %s\n", merged.report_json_path.c_str());
  }
  std::printf("  fleet manifest: %s\n", merged.fleet_manifest_path.c_str());
  if (const auto* summary = merged.report.find("summary")) {
    std::printf("  summary: %s\n", json::dump_compact(*summary).c_str());
  }
}

int worker_command(const FleetCli& cli) {
  if (!cli.shard_given) usage_error("worker: --shard k/W is required");
  const auto spec = adc::scenario::load_spec_file(cli.spec_path);
  auto options = worker_options(cli);
  ProgressPrinter printer(cli.shard, cli.shards);
  if (!cli.quiet) options.progress = printer;
  const auto result = adc::fleet::run_worker(spec, options);
  print_worker_summary(result);
  return result.manifest.complete || cli.max_jobs != 0 ? 0 : 1;
}

int run_command(const FleetCli& cli) {
  if (cli.workers == 0) usage_error("run: --workers N (N >= 1) is required");
  const auto spec = adc::scenario::load_spec_file(cli.spec_path);

  // Fork one child per shard. This happens before any thread is created in
  // this process (no pool, no heartbeat), so fork() is safe; each child
  // builds its own pool after the fork.
  std::vector<pid_t> children;
  children.reserve(cli.workers);
  for (unsigned k = 0; k < cli.workers; ++k) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "adc_fleet: fork failed for shard %u\n", k);
      for (const pid_t child : children) ::kill(child, SIGTERM);
      return 1;
    }
    if (pid == 0) {
      // Child: run the worker and exit without unwinding into the parent's
      // CLI state.
      int code = 1;
      try {
        auto options = worker_options(cli);
        options.shards = cli.workers;
        options.shard = k;
        ProgressPrinter printer(k, cli.workers);
        if (!cli.quiet) options.progress = printer;
        const auto result = adc::fleet::run_worker(spec, options);
        print_worker_summary(result);
        code = result.manifest.complete ? 0 : 1;
      } catch (const adc::common::AdcError& e) {
        std::fprintf(stderr, "adc_fleet worker %u: %s\n", k, e.what());
      }
      std::exit(code);
    }
    children.push_back(pid);
  }

  bool workers_ok = true;
  for (unsigned k = 0; k < cli.workers; ++k) {
    int status = 0;
    if (::waitpid(children[k], &status, 0) < 0 || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "adc_fleet: worker for shard %u failed\n", k);
      workers_ok = false;
    }
  }
  if (!workers_ok && cli.max_jobs == 0) return 1;

  adc::fleet::MergeOptions merge;
  merge.cache_dir = cli.cache_dir;
  merge.report_dir = cli.report_dir;
  merge.shards = cli.workers;
  const auto merged = adc::fleet::merge_fleet(spec, merge);
  print_merge_summary(merged, spec.name);
  return check_hit_rate(cli.min_hit_rate, merged);
}

int merge_command(const FleetCli& cli) {
  if (cli.shards == 0) usage_error("merge: --shards W is required");
  const auto spec = adc::scenario::load_spec_file(cli.spec_path);
  adc::fleet::MergeOptions merge;
  merge.cache_dir = cli.cache_dir;
  merge.report_dir = cli.report_dir;
  merge.shards = cli.shards;
  const auto merged = adc::fleet::merge_fleet(spec, merge);
  print_merge_summary(merged, spec.name);
  return check_hit_rate(cli.min_hit_rate, merged);
}

int status_command(const FleetCli& cli) {
  const auto spec = adc::scenario::load_spec_file(cli.spec_path);
  const auto status = adc::fleet::fleet_status(spec, cli.cache_dir);
  std::printf("fleet %s: %zu/%zu jobs cached, %zu outstanding claims\n",
              spec.name.c_str(), status.cached, status.jobs_total,
              status.claims.size());
  const std::uint64_t now = adc::fleet::wall_clock_ms();
  for (const auto& claim : status.claims) {
    const std::uint64_t age =
        now >= claim.info.heartbeat_ms ? now - claim.info.heartbeat_ms : 0;
    const bool stale = age >= cli.lease_ms;
    std::printf("  %s owner=%s heartbeat_age=%llums%s\n", claim.hash.c_str(),
                claim.info.owner.empty() ? "(corrupt)" : claim.info.owner.c_str(),
                static_cast<unsigned long long>(age), stale ? " [stale]" : "");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.empty()) usage_error("no command given");
    const std::string command = args[0];
    if (command == "--help" || command == "help") {
      print_usage();
      return 0;
    }
    const FleetCli cli = parse_cli({args.begin() + 1, args.end()});
    if (command == "run") return run_command(cli);
    if (command == "worker") return worker_command(cli);
    if (command == "merge") return merge_command(cli);
    if (command == "status") return status_command(cli);
    usage_error("unknown command " + command);
  } catch (const CliError& e) {
    return e.exit_code;
  } catch (const adc::common::AdcError& e) {
    std::fprintf(stderr, "adc_fleet: %s\n", e.what());
    return 1;
  }
}
