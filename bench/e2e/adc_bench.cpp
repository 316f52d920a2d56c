/// \file adc_bench.cpp
/// adc_bench: the end-to-end benchmark of the simulator stack.
///
///   adc_bench --seed S [--workload W|all] [--seconds T] [--quick]
///             [--out res.json] [--trace trace.json] [--work-dir D]
///
/// Each workload runs in fresh child processes of this executable, so each
/// peak RSS is its own and the fleet workload can start worker processes
/// safely. The parent process splits the T-second window over kMeasureChildren
/// measurement children with tracing off, and before each one samples
/// set-up time from short-lived children that stop once the first job is
/// submittable. Every end-to-end metric is the median over those children
/// of each child's own value, and its q1/q3 are the spread between them:
/// the run-to-run spread compare.py judges. With --trace it runs one more
/// child that replays the workload through public calls with spans. It
/// prints one line per metric (workload, name, median, unit, q1, q3, n),
/// checks every output against the system's own oracles, and exits 1 when
/// any check fails. --out writes every number, with provenance, as JSON.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/isa_dispatch.hpp"
#include "common/json.hpp"
#include "runtime/manifest.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
namespace json = adc::common::json;
using namespace adc_bench;

/// Measurement children per workload, and set-up samples taken before each.
/// Three children give every end-to-end metric a run-to-run spread while
/// each child still holds several repetitions of the heaviest workloads.
constexpr int kMeasureChildren = 3;
constexpr int kSetupsPerChild = 7;

[[noreturn]] void usage(const std::string& message) {
  std::fprintf(stderr,
               "adc_bench: %s\n"
               "usage: adc_bench --seed S [--workload W|all] [--seconds T] [--quick]\n"
               "                 [--out res.json] [--trace trace.json] [--work-dir D]\n"
               "workloads: yield-cold yield-warm sweep-scalar fleet-w2 served-mix\n",
               message.c_str());
  std::exit(2);
}

struct Cli {
  std::optional<std::uint64_t> seed;
  std::vector<Workload> workloads{kAllWorkloads.begin(), kAllWorkloads.end()};
  double seconds = 10.0;
  bool quick = false;
  std::string out;
  std::string trace;
  std::string work_dir = ".";
  // Child roles.
  std::optional<Workload> child;
  std::string dir;
  std::string result;
  bool traced = false;
  bool setup_only = false;
  int ready_fd = -1;
  std::optional<unsigned> fleet_worker;
  std::string cache;
};

std::uint64_t parse_uint(const std::string& text, const char* what) {
  try {
    std::size_t used = 0;
    const unsigned long long value = std::stoull(text, &used);
    if (used == text.size()) return value;
  } catch (const std::exception&) {
  }
  usage(std::string(what) + " must be a non-negative integer, got \"" + text + "\"");
}

double parse_seconds(const std::string& text) {
  try {
    std::size_t used = 0;
    const double value = std::stod(text, &used);
    if (used == text.size() && value > 0.0) return value;
  } catch (const std::exception&) {
  }
  usage("--seconds must be a positive number, got \"" + text + "\"");
}

Cli parse_cli(int argc, char** argv) {
  Cli cli;
  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size()) usage(arg + " needs a value");
      return args[++i];
    };
    if (arg == "--seed") {
      cli.seed = parse_uint(value(), "--seed");
    } else if (arg == "--workload") {
      const std::string& name = value();
      if (name != "all") {
        const auto w = parse_workload(name);
        if (!w) usage("unknown workload \"" + name + "\"");
        cli.workloads = {*w};
      }
    } else if (arg == "--seconds") {
      cli.seconds = parse_seconds(value());
    } else if (arg == "--quick") {
      cli.quick = true;
    } else if (arg == "--out") {
      cli.out = value();
    } else if (arg == "--trace") {
      cli.trace = value();
    } else if (arg == "--work-dir") {
      cli.work_dir = value();
    } else if (arg == "--child") {
      cli.child = parse_workload(value());
      if (!cli.child) usage("unknown child workload");
    } else if (arg == "--dir") {
      cli.dir = value();
    } else if (arg == "--result") {
      cli.result = value();
    } else if (arg == "--traced") {
      cli.traced = true;
    } else if (arg == "--setup-only") {
      cli.setup_only = true;
    } else if (arg == "--ready-fd") {
      cli.ready_fd = static_cast<int>(parse_uint(value(), "--ready-fd"));
    } else if (arg == "--fleet-worker") {
      cli.fleet_worker = static_cast<unsigned>(parse_uint(value(), "--fleet-worker"));
    } else if (arg == "--cache") {
      cli.cache = value();
    } else {
      usage("unknown argument \"" + arg + "\"");
    }
  }
  if (!cli.seed) usage("--seed is required");
  return cli;
}

ChildOptions child_options(const Cli& cli) {
  ChildOptions o;
  o.seed = *cli.seed;
  o.seconds = cli.seconds;
  o.quick = cli.quick;
  o.threads = bench_threads();
  o.traced = cli.traced;
  o.setup_only = cli.setup_only;
  o.ready_fd = cli.ready_fd;
  return o;
}

/// Child entry: run one workload (or one fleet worker) in `--dir`.
int run_child(const Cli& cli) {
  try {
    if (cli.fleet_worker) {
      return run_fleet_worker(child_options(cli), *cli.fleet_worker, cli.cache, cli.result);
    }
    if (::chdir(cli.dir.c_str()) != 0) throw std::runtime_error("cannot enter " + cli.dir);
    const json::JsonValue result = run_workload(*cli.child, child_options(cli));
    if (!cli.result.empty()) write_file(cli.result, json::dump(result));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adc_bench child: %s\n", e.what());
    return 1;
  }
}

// --- the parent process -------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  std::string better;  ///< "lower" | "higher" | "" (informational)
  Summary value;
};

struct WorkloadReport {
  Tally tally;
  std::vector<Metric> metrics;  ///< end-to-end, the BENCHMARK.json set
  std::vector<Metric> details;  ///< informational end-to-end numbers
  json::JsonValue layers = json::JsonValue::object();
  std::string spans_json;
  double load_before = 0.0;
  double load_after = 0.0;
  bool load_warning = false;
};

double load_average() {
  double load[1] = {0.0};
  return ::getloadavg(load, 1) == 1 ? load[0] : 0.0;
}

std::vector<double> numbers(const json::JsonValue* array) {
  std::vector<double> out;
  if (array == nullptr) return out;
  for (const auto& v : array->items()) out.push_back(v.as_double());
  return out;
}

void append(std::vector<double>& to, const std::vector<double>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

Summary single(double value) { return {value, value, value, 1}; }

class Coordinator {
 public:
  Coordinator(const Cli& cli, unsigned threads, std::string root)
      : cli_(cli), threads_(threads), root_(std::move(root)) {}

  WorkloadReport measure(Workload w) {
    WorkloadReport report;
    report.load_before = load_average();
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    report.load_warning = report.load_before > static_cast<double>(nproc - threads_);

    // One value per measurement child for each end-to-end metric; the raw
    // samples of every child pooled for the informational percentiles.
    const int children = cli_.quick ? 1 : kMeasureChildren;
    std::vector<double> setup_s;
    std::vector<double> request_ms;
    std::vector<double> rss_mb;
    std::vector<double> all_request_ms;
    std::vector<double> ttfc_ms;
    std::vector<double> hit_done_ms;
    std::vector<double> big_done_ms;
    std::string report_digest;
    for (int c = 0; c < children; ++c) {
      if (const auto s = sample_setup(w, cli_.quick ? 1 : kSetupsPerChild, report.tally)) {
        setup_s.push_back(*s);
      }
      const auto measured = run_child_result(w, "-run" + std::to_string(c), false,
                                             cli_.seconds / children, report.tally);
      if (!measured.doc) continue;
      const json::JsonValue& doc = *measured.doc;
      absorb_tally(doc, report.tally);
      const auto requests = numbers(doc.find("request_ms"));
      request_ms.push_back(summarize(requests).median);
      rss_mb.push_back(static_cast<double>(measured.max_rss_kb) / 1024.0);
      append(all_request_ms, requests);
      if (const auto* details = doc.find("details")) {
        append(ttfc_ms, numbers(details->find("ttfc_ms")));
        append(hit_done_ms, numbers(details->find("hit_done_ms")));
        append(big_done_ms, numbers(details->find("big_done_ms")));
      }
      if (const auto* d = doc.find("report_digest")) {
        if (report_digest.empty()) report_digest = d->as_string();
        report.tally.check(d->as_string() == report_digest,
                           "child " + std::to_string(c) + ": report digest differs");
      }
    }
    report.metrics = {
        {"setup_s", "s", "lower", summarize(setup_s)},
        {"request_p50_ms", "ms", "lower", summarize(request_ms)},
        {"peak_rss_mb", "MB", "lower", summarize(rss_mb)},
    };
    add_percentile(report.details, "request_p90_ms", all_request_ms, 0.9);
    add_median(report.details, "ttfc_p50_ms", ttfc_ms);
    add_percentile(report.details, "ttfc_p90_ms", ttfc_ms, 0.9);
    add_median(report.details, "hit_done_p50_ms", hit_done_ms);
    add_median(report.details, "big_done_p50_ms", big_done_ms);
    if (!cli_.trace.empty()) trace(w, report_digest, report);
    report.details.push_back(
        {"failed_frac", "fraction", "lower",
         single(report.tally.attempted > 0 ? static_cast<double>(report.tally.failed) /
                                                 static_cast<double>(report.tally.attempted)
                                           : 1.0)});
    report.load_after = load_average();
    report.load_warning = report.load_warning ||
                          report.load_after > static_cast<double>(nproc - threads_);
    return report;
  }

 private:
  struct ChildResult {
    std::optional<json::JsonValue> doc;
    long max_rss_kb = 0;
    std::string spans_path;
  };

  /// Median time of `count` children from spawn until they signal that
  /// their first job is submittable; nothing when none of them did.
  std::optional<double> sample_setup(Workload w, int count, Tally& tally) {
    std::vector<double> setup_s;
    for (int i = 0; i < count; ++i) {
      const std::string dir = fresh_dir(std::string(workload_name(w)) + "-setup");
      ReadyPipe pipe;
      const auto start = Clock::now();
      Child child = Child::spawn(
          child_args(w, dir, {"--setup-only", "--ready-fd", std::to_string(kReadyFd)}),
          env(), pipe.write_end());
      pipe.close_write_end();
      const bool ready = pipe.wait_ready();
      const double elapsed = seconds_since(start);
      const bool exited = child.wait().status == 0;
      tally.check(ready && exited, "set-up child failed");
      if (ready) setup_s.push_back(elapsed);
      remove_dir(dir);
    }
    if (setup_s.empty()) return std::nullopt;
    return summarize(setup_s).median;
  }

  std::vector<std::string> child_args(Workload w, const std::string& dir,
                                      std::vector<std::string> extra) const {
    std::vector<std::string> args{"--child", workload_name(w), "--dir", dir,
                                  "--seed",  std::to_string(*cli_.seed)};
    if (cli_.quick) args.emplace_back("--quick");
    args.insert(args.end(), extra.begin(), extra.end());
    return args;
  }

  std::vector<std::pair<std::string, std::string>> env() const {
    // The child's global pool is exactly its width, so batches share it
    // instead of spinning up private pools.
    return {{"ADC_RUNTIME_THREADS", std::to_string(threads_)}};
  }

  std::string fresh_dir(const std::string& name) const {
    const std::string dir = root_ + "/" + name;
    fs::create_directories(dir);
    return dir;
  }

  static void remove_dir(const std::string& dir) {
    std::error_code ec;
    fs::remove_all(dir, ec);
  }

  ChildResult run_child_result(Workload w, const std::string& suffix, bool traced,
                               double seconds, Tally& tally) {
    const std::string dir = fresh_dir(std::string(workload_name(w)) + suffix);
    const std::string result_path = dir + "/result.json";
    std::vector<std::string> extra{"--result", result_path, "--seconds", std::to_string(seconds)};
    if (traced) extra.emplace_back("--traced");
    Child child = Child::spawn(child_args(w, dir, extra), env());
    const Child::Exit exit = child.wait();
    ChildResult result;
    result.max_rss_kb = exit.usage.ru_maxrss;
    tally.check(exit.status == 0, std::string(workload_name(w)) + suffix + " child failed");
    if (exit.status == 0) {
      result.doc = json::parse(read_file(result_path));
      std::error_code ec;
      if (fs::exists(dir + "/spans.json", ec)) result.spans_path = dir + "/spans.json";
    }
    return result;
  }

  static void absorb_tally(const json::JsonValue& doc, Tally& tally) {
    tally.attempted += doc.find("attempted")->as_uint64();
    tally.failed += doc.find("failed")->as_uint64();
    for (const auto& f : doc.find("failures")->items()) {
      if (tally.failures.items().size() < 20) tally.failures.push_back(f);
    }
  }

  static void add_median(std::vector<Metric>& out, const char* name,
                         const std::vector<double>& values) {
    if (!values.empty()) out.push_back({name, "ms", "lower", summarize(values)});
  }

  static void add_percentile(std::vector<Metric>& out, const char* name,
                             const std::vector<double>& values, double p) {
    if (!percentile_resolved(values.size(), p)) return;
    const double v = percentile(values, p);
    out.push_back({name, "ms", "lower", {v, v, v, values.size()}});
  }

  /// The traced run: layer metrics, the tracing overhead, and the
  /// replay-versus-untraced report identity.
  void trace(Workload w, const std::string& untraced_digest, WorkloadReport& report) {
    const auto traced = run_child_result(w, "-traced", true, cli_.seconds, report.tally);
    if (!traced.doc) return;
    absorb_tally(*traced.doc, report.tally);
    if (!untraced_digest.empty()) {
      report.tally.check(traced.doc->find("report_digest")->as_string() == untraced_digest,
                         "traced report digest differs from the untraced run");
    }
    report.layers = *traced.doc->find("layers");
    if (!traced.spans_path.empty()) report.spans_json = read_file(traced.spans_path);
  }

  const Cli& cli_;
  unsigned threads_;
  std::string root_;
};

void print_line(const char* workload, const Metric& m) {
  std::printf("%-13s %-26s %14.6g %-10s %14.6g %14.6g %6zu\n", workload, m.name.c_str(),
              m.value.median, m.unit.c_str(), m.value.q1, m.value.q3, m.value.n);
}

json::JsonValue metric_doc(const Metric& m) {
  auto doc = json::JsonValue::object();
  doc.set("median", m.value.median);
  doc.set("q1", m.value.q1);
  doc.set("q3", m.value.q3);
  doc.set("n", static_cast<std::uint64_t>(m.value.n));
  doc.set("unit", m.unit);
  doc.set("better", m.better);
  return doc;
}

int run_parent(const Cli& cli) {
  ::unsetenv("ADC_RUNTIME_MANIFEST_DIR");
  fs::create_directories(cli.work_dir);
  std::string pattern = fs::absolute(cli.work_dir).string() + "/adc_bench.XXXXXX";
  if (::mkdtemp(pattern.data()) == nullptr) usage("cannot create a scratch directory");
  const std::string root = pattern;

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = bench_threads();
  auto context = json::JsonValue::object();
  context.set("nproc", static_cast<std::uint64_t>(nproc));
  context.set("threads", static_cast<std::uint64_t>(threads));
  context.set("batch_isa", adc::common::to_string(adc::common::active_batch_isa()));
  context.set("git_describe", adc::runtime::git_describe());
  context.set("seed", *cli.seed);
  context.set("seconds", cli.seconds);
  context.set("quick", cli.quick);

  std::printf("%-13s %-26s %14s %-10s %14s %14s %6s\n", "workload", "metric", "median", "unit",
              "q1", "q3", "n");
  std::fflush(stdout);
  Coordinator coordinator(cli, threads, root);
  auto workloads = json::JsonValue::object();
  std::string traces;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Workload w : cli.workloads) {
    const WorkloadReport r = coordinator.measure(w);
    const char* name = workload_name(w);
    for (const auto& m : r.metrics) print_line(name, m);
    for (const auto& m : r.details) print_line(name, m);
    for (const auto& metric : layer_metric_catalog()) {
      if (const auto* v = r.layers.find(metric.name)) {
        print_line(name, {metric.name, metric.unit, "", single(v->as_double())});
      }
    }
    if (r.load_warning) {
      std::fprintf(stderr,
                   "adc_bench: warning: 1-minute load %.2f/%.2f around %s exceeds nproc - "
                   "threads = %u\n",
                   r.load_before, r.load_after, name, nproc - threads);
    }
    for (const auto& f : r.tally.failures.items()) {
      std::fprintf(stderr, "adc_bench: %s: FAILED: %s\n", name, f.as_string().c_str());
    }
    std::fflush(stdout);
    attempted += r.tally.attempted;
    failed += r.tally.failed;

    auto doc = json::JsonValue::object();
    r.tally.write(doc);
    doc.set("load_before", r.load_before);
    doc.set("load_after", r.load_after);
    doc.set("load_warning", r.load_warning);
    auto metrics = json::JsonValue::object();
    for (const auto& m : r.metrics) metrics.set(m.name, metric_doc(m));
    doc.set("metrics", std::move(metrics));
    auto details = json::JsonValue::object();
    for (const auto& m : r.details) details.set(m.name, metric_doc(m));
    doc.set("details", std::move(details));
    auto layers = json::JsonValue::object();
    for (const auto& metric : layer_metric_catalog()) {
      if (const auto* v = r.layers.find(metric.name)) {
        auto entry = json::JsonValue::object();
        entry.set("value", v->as_double());
        entry.set("unit", metric.unit);
        layers.set(metric.name, std::move(entry));
      }
    }
    doc.set("per_layer", std::move(layers));
    workloads.set(name, std::move(doc));
    if (!r.spans_json.empty()) {
      traces += std::string(traces.empty() ? "" : ",\n") + "\"" + name + "\": " + r.spans_json;
    }
  }

  auto out = json::JsonValue::object();
  out.set("context", std::move(context));
  out.set("workloads", std::move(workloads));
  if (!cli.out.empty()) write_file(cli.out, json::dump(out));
  if (!cli.trace.empty()) write_file(cli.trace, "{" + traces + "}\n");
  std::error_code ec;
  fs::remove_all(root, ec);

  std::printf("adc_bench: %llu operations checked, %llu failed\n",
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed));
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "adc_bench: refusing to time a build without NDEBUG (use Release)\n");
  return 2;
#endif
  const Cli cli = parse_cli(argc, argv);
  if (cli.child || cli.fleet_worker) return run_child(cli);
  try {
    return run_parent(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "adc_bench: %s\n", e.what());
    return 1;
  }
}
