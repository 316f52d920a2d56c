/// Tests for the parallel simulation runtime: work-stealing pool mechanics
/// (steal path, backpressure, cancellation), the deterministic batch API
/// (index ordering, thread-count invariance, exception propagation), and the
/// telemetry/manifest layer.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "runtime/manifest.hpp"
#include "runtime/metrics.hpp"
#include "runtime/parallel.hpp"
#include "runtime/thread_pool.hpp"

namespace rt = adc::runtime;

namespace {

/// A deterministic, mildly expensive pure function of an index (splitmix64
/// finisher) — a stand-in for "fabricate die i and measure it".
double job_value(std::size_t i) {
  std::uint64_t z = static_cast<std::uint64_t>(i) + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<double>(z) / 1e19;
}

/// A manual gate: jobs block on wait() until the test calls open().
class Gate {
 public:
  void open() {
    {
      std::lock_guard<std::mutex> lock(m_);
      open_ = true;
    }
    cv_.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait(lock, [this] { return open_; });
  }

 private:
  std::mutex m_;
  std::condition_variable cv_;
  bool open_ = false;
};

}  // namespace

TEST(ThreadPool, RunsEveryJobOnce) {
  rt::ThreadPool pool({4, 128});
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1); });
  }
  pool.wait_idle();
  EXPECT_EQ(count.load(), 100);
  const auto c = pool.counters();
  EXPECT_EQ(c.submitted, 100u);
  EXPECT_EQ(c.executed, 100u);
  EXPECT_EQ(c.failed, 0u);
  EXPECT_EQ(pool.latency_histogram().total(), 100u);
}

TEST(ThreadPool, StealPathMovesJobsOffABlockedWorker) {
  // Two workers, round-robin submission: a gate job parks worker 0, then the
  // quick jobs dealt to worker 0's deque can only finish if worker 1 steals
  // them. Require all quick jobs to complete *while the gate is still shut*.
  rt::ThreadPool pool({2, 128});
  Gate gate;
  std::atomic<int> quick_done{0};
  pool.submit([&gate] { gate.wait(); });
  const int quick_jobs = 8;
  for (int i = 0; i < quick_jobs; ++i) {
    pool.submit([&quick_done] { quick_done.fetch_add(1); });
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (quick_done.load() < quick_jobs) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "steal path never drained";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(pool.counters().stolen, 1u);
  gate.open();
  pool.wait_idle();
}

TEST(ThreadPool, BlockingSubmitWaitsForSpaceInsteadOfFailing) {
  rt::ThreadPool pool({1, 1});
  Gate gate;
  std::atomic<int> done{0};
  pool.submit([&gate] { gate.wait(); });
  pool.submit([&done] { done.fetch_add(1); });  // fills the queue
  // This submit must block until the gate opens; run it from a helper thread
  // and verify it has not returned while the pool is saturated.
  std::atomic<bool> third_accepted{false};
  std::thread producer([&] {
    pool.submit([&done] { done.fetch_add(1); });
    third_accepted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_accepted.load());
  gate.open();
  producer.join();
  pool.wait_idle();
  EXPECT_TRUE(third_accepted.load());
  EXPECT_EQ(done.load(), 2);
  EXPECT_GE(pool.counters().backpressure_waits, 1u);
}

TEST(ThreadPool, RawJobExceptionIsCapturedNotFatal) {
  rt::ThreadPool pool({2, 16});
  pool.submit([] { throw adc::common::MeasurementError("raw job boom"); });
  pool.wait_idle();
  EXPECT_EQ(pool.counters().failed, 1u);
}

TEST(ParallelMap, ReturnsResultsInIndexOrder) {
  const std::size_t n = 100;
  rt::BatchOptions opts;
  opts.threads = 4;
  rt::BatchStats stats;
  opts.stats = &stats;
  const auto out = rt::parallel_map<double>(n, job_value, opts);
  ASSERT_EQ(out.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(out[i], job_value(i)) << "slot " << i;
  }
  EXPECT_EQ(stats.jobs, n);
  EXPECT_EQ(stats.skipped, 0u);
  EXPECT_GE(stats.wall_seconds, 0.0);
}

TEST(ParallelMap, BitIdenticalAcrossThreadCounts) {
  const std::size_t n = 64;
  std::vector<std::vector<double>> runs;
  for (const unsigned threads : {1u, 2u, 5u, 8u}) {
    rt::BatchOptions opts;
    opts.threads = threads;
    runs.push_back(rt::parallel_map<double>(n, job_value, opts));
  }
  for (std::size_t r = 1; r < runs.size(); ++r) {
    EXPECT_EQ(runs[0], runs[r]) << "thread-count run " << r << " diverged";
  }
}

TEST(ParallelMap, SingleFailureRethrownOnCaller) {
  rt::BatchOptions opts;
  opts.threads = 4;
  const auto run = [&] {
    (void)rt::parallel_map<double>(
        64,
        [](std::size_t i) {
          if (i == 17) throw adc::common::MeasurementError("die 17 failed");
          return job_value(i);
        },
        opts);
  };
  try {
    run();
    FAIL() << "expected MeasurementError";
  } catch (const adc::common::MeasurementError& e) {
    EXPECT_STREQ(e.what(), "die 17 failed");
  }
  // The pool survives a failed batch and runs subsequent work.
  const auto again = rt::parallel_map<double>(8, job_value, opts);
  EXPECT_EQ(again.size(), 8u);
}

TEST(ParallelMap, FailureCancelsRemainingJobs) {
  std::atomic<std::uint64_t> executed{0};
  rt::BatchOptions opts;
  opts.threads = 2;
  rt::BatchStats stats;
  opts.stats = &stats;
  bool threw = false;
  try {
    (void)rt::parallel_map<double>(
        256,
        [&executed](std::size_t i) {
          executed.fetch_add(1);
          if (i == 0) throw adc::common::MeasurementError("first job fails");
          std::this_thread::sleep_for(std::chrono::microseconds(50));
          return job_value(i);
        },
        opts);
  } catch (const adc::common::MeasurementError&) {
    threw = true;
  }
  EXPECT_TRUE(threw);
  // Cancellation is cooperative, so some in-flight jobs complete, but the
  // tail of the batch must have been skipped.
  EXPECT_LT(executed.load(), 256u);
  EXPECT_GT(stats.skipped, 0u);
}

TEST(ParallelMap, PreCancelledBatchSkipsEverything) {
  rt::CancellationToken cancel;
  cancel.cancel();
  rt::BatchOptions opts;
  opts.threads = 2;
  opts.cancel = &cancel;
  rt::BatchStats stats;
  opts.stats = &stats;
  std::atomic<int> executed{0};
  const auto out = rt::parallel_map<double>(
      32,
      [&executed](std::size_t i) {
        executed.fetch_add(1);
        return job_value(i);
      },
      opts);
  EXPECT_EQ(executed.load(), 0);
  EXPECT_EQ(stats.skipped, 32u);
  EXPECT_EQ(out.size(), 32u);  // default-filled slots
}

TEST(ParallelMap, NestedBatchRunsInlineWithoutDeadlock) {
  rt::BatchOptions opts;
  opts.threads = 2;
  const auto out = rt::parallel_map<double>(
      8,
      [](std::size_t i) {
        // A batch inside a worker must serialize, not deadlock.
        const auto inner =
            rt::parallel_map<double>(4, [i](std::size_t j) { return job_value(i * 4 + j); });
        double sum = 0.0;
        for (const double v : inner) sum += v;
        return sum;
      },
      opts);
  ASSERT_EQ(out.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    double expect = 0.0;
    for (std::size_t j = 0; j < 4; ++j) expect += job_value(i * 4 + j);
    EXPECT_DOUBLE_EQ(out[i], expect);
  }
}

TEST(ParallelMap, ScopedOverridePinsThreadCountAndNests) {
  EXPECT_EQ(rt::effective_thread_count(3), 3u);
  {
    const rt::ScopedThreadOverride outer(1);
    EXPECT_EQ(rt::effective_thread_count(0), 1u);
    {
      const rt::ScopedThreadOverride inner(4);
      EXPECT_EQ(rt::effective_thread_count(0), 4u);
    }
    EXPECT_EQ(rt::effective_thread_count(0), 1u);
    // Serial reference path under the override.
    const auto out = rt::parallel_map<double>(16, job_value);
    for (std::size_t i = 0; i < 16; ++i) EXPECT_DOUBLE_EQ(out[i], job_value(i));
  }
}

TEST(ParallelMap, EmptyAndSingleElementBatches) {
  const auto none = rt::parallel_map<double>(0, job_value);
  EXPECT_TRUE(none.empty());
  const auto one = rt::parallel_map<double>(1, job_value);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_DOUBLE_EQ(one[0], job_value(0));
}

TEST(RuntimeConfig, EnvThreadOverrideParses) {
  ASSERT_EQ(setenv("ADC_RUNTIME_THREADS", "3", 1), 0);
  EXPECT_EQ(rt::default_thread_count(), 3u);
  ASSERT_EQ(setenv("ADC_RUNTIME_THREADS", "not-a-number", 1), 0);
  EXPECT_GE(rt::default_thread_count(), 1u);  // falls back to hardware
  ASSERT_EQ(setenv("ADC_RUNTIME_THREADS", "0", 1), 0);
  EXPECT_GE(rt::default_thread_count(), 1u);
  ASSERT_EQ(unsetenv("ADC_RUNTIME_THREADS"), 0);
}

// One rule for ADC_RUNTIME_THREADS and the CLIs' --threads: a whole decimal
// in 1..1024.
TEST(RuntimeConfig, ThreadCountParserTakesOnlyWholeCountsInRange) {
  EXPECT_EQ(rt::parse_thread_count("1"), std::optional<unsigned>(1));
  EXPECT_EQ(rt::parse_thread_count("1024"), std::optional<unsigned>(1024));
  for (const char* bad : {"0", "1025", "-1", "4x", "", " 4", "+4", "99999999999"}) {
    EXPECT_FALSE(rt::parse_thread_count(bad).has_value()) << '"' << bad << '"';
  }
}

TEST(Metrics, HistogramBucketsAndQuantiles) {
  rt::LatencyHistogram hist;
  hist.record(std::chrono::microseconds(1));    // bucket 0
  hist.record(std::chrono::microseconds(3));    // bucket 1
  hist.record(std::chrono::microseconds(100));  // bucket 6
  hist.record(std::chrono::nanoseconds(10));    // sub-µs -> bucket 0
  const auto snap = hist.snapshot();
  EXPECT_EQ(snap.total(), 4u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 1u);
  EXPECT_EQ(snap.counts[6], 1u);
  EXPECT_EQ(snap.quantile_upper_us(0.0), 2u);
  EXPECT_EQ(snap.quantile_upper_us(1.0), 128u);
  EXPECT_EQ(rt::HistogramSnapshot{}.quantile_upper_us(0.5), 0u);
}

TEST(Manifest, JsonCarriesProvenancePhasesAndTelemetry) {
  rt::RunManifest manifest("unit_test_run");
  manifest.set("first_seed", 42);
  manifest.set("seed_count", 25);
  manifest.set("threads", 8);
  manifest.set("note", "quote \" backslash \\ done");
  {
    auto scope = manifest.phase("simulate", 25);
    scope.set_jobs(25);
  }
  manifest.add_phase({"analyze", 0.25, 0.5, 3});

  rt::ThreadPool pool({2, 16});
  std::atomic<int> n{0};
  for (int i = 0; i < 10; ++i) pool.submit([&n] { n.fetch_add(1); });
  pool.wait_idle();
  manifest.set_pool_telemetry(pool.counters(), pool.latency_histogram());

  const auto json = manifest.to_json();
  for (const char* needle :
       {"\"run\": \"unit_test_run\"", "\"git_describe\"", "\"schema_version\": 3",
        "\"first_seed\": 42", "\"seed_count\": 25", "\"threads\": 8",
        "\"name\": \"simulate\"", "\"jobs\": 25", "\"name\": \"analyze\"",
        "\"pool\"", "\"executed\": 10", "\"job_latency_us\"",
        "quote \\\" backslash \\\\ done"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << "missing " << needle << "\n" << json;
  }
  // Structural sanity: braces and brackets balance.
  long braces = 0;
  long brackets = 0;
  for (const char c : json) {
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

// Schema v3 contract: the emitted manifest is a valid strict-JSON document
// that round-trips through the shared parser with nothing lost — parse it,
// re-emit it, and the bytes match.
TEST(Manifest, JsonParseEmitRoundTripIsExact) {
  rt::RunManifest manifest("roundtrip_run");
  manifest.set("first_seed", 7);
  manifest.set("seed_count", 3);
  manifest.set("note", "tab\there \"quoted\" \\slash");
  {
    auto scope = manifest.phase("measure", 3);
  }
  rt::ThreadPool pool({2, 16});
  for (int i = 0; i < 4; ++i) pool.submit([] {});
  pool.wait_idle();
  manifest.set_pool_telemetry(pool.counters(), pool.latency_histogram());

  const std::string emitted = manifest.to_json();
  const auto parsed = adc::common::json::parse(emitted);
  EXPECT_EQ(adc::common::json::dump(parsed), emitted);
  EXPECT_TRUE(parsed == manifest.to_json_value());

  // Spot-check typed access through the parsed tree.
  EXPECT_EQ(parsed.find("schema_version")->as_uint64(), 3u);
  EXPECT_EQ(parsed.find("first_seed")->as_uint64(), 7u);
  ASSERT_EQ(parsed.find("phases")->items().size(), 1u);
  EXPECT_EQ(parsed.find("phases")->items()[0].find("name")->as_string(), "measure");
  EXPECT_EQ(parsed.find("pool")->find("executed")->as_uint64(), 4u);
}

// A loop that re-enters a phase (a fleet worker's probe/execute rounds)
// keeps one entry per name, holding the sums.
TEST(Manifest, RepeatedPhaseAccumulatesIntoItsFirstEntry) {
  rt::RunManifest manifest("phase_sums");
  manifest.add_phase({"execute", 0.25, 0.5, 3});
  manifest.add_phase({"cache_probe", 0.125, 0.125, 0});
  manifest.add_phase({"execute", 0.5, 1.0, 2});
  const auto doc = manifest.to_json_value();
  const auto& phases = doc.find("phases")->items();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].find("name")->as_string(), "execute");
  EXPECT_EQ(phases[0].find("wall_seconds")->as_double(), 0.75);
  EXPECT_EQ(phases[0].find("cpu_seconds")->as_double(), 1.5);
  EXPECT_EQ(phases[0].find("jobs")->as_uint64(), 5u);
  EXPECT_EQ(phases[1].find("name")->as_string(), "cache_probe");
}

TEST(Manifest, WritesToEnvDirWhenSet) {
  rt::RunManifest manifest("env_dir_probe");
  EXPECT_FALSE(manifest.write_to_env_dir().has_value());  // unset -> disabled

  const auto dir = ::testing::TempDir();
  ASSERT_EQ(setenv("ADC_RUNTIME_MANIFEST_DIR", dir.c_str(), 1), 0);
  const auto path = manifest.write_to_env_dir();
  ASSERT_EQ(unsetenv("ADC_RUNTIME_MANIFEST_DIR"), 0);
  ASSERT_TRUE(path.has_value());
  std::ifstream in(*path);
  ASSERT_TRUE(in.good()) << *path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), manifest.to_json());
  ASSERT_EQ(std::remove(path->c_str()), 0);
}

TEST(Manifest, WriteToBadPathThrows) {
  const rt::RunManifest manifest("bad_path");
  EXPECT_THROW(manifest.write("/nonexistent-dir-for-sure/x.json"),
               adc::common::ConfigError);
}
