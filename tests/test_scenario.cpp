/// Tests for the scenario engine (src/scenario/): spec validation naming the
/// offending key, sweep expansion, key-order-independent hashing, cache
/// correctness (bit-identical hits, corrupt-entry eviction, env-var root,
/// the pinned entry bytes and the pack layout, loads over many names),
/// interrupted-run resume producing bit-identical reports, plans and cache
/// probes identical at any thread count, fast-profile sweeps whose execute
/// units batch across grid points, and reports rendered in chunks that
/// join to json::dump and the CSV oracle at any thread count.
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <limits>
#include <mutex>
#include <optional>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/fidelity.hpp"
#include "common/files.hpp"
#include "common/json.hpp"
#include "runtime/heartbeat.hpp"
#include "runtime/parallel.hpp"
#include "scenario/cache.hpp"
#include "scenario/claims.hpp"
#include "scenario/hash.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace fs = std::filesystem;
namespace json = adc::common::json;
using adc::common::ConfigError;
using namespace adc::scenario;

namespace {

/// A fast 4-job dynamic sweep (2 rates x 2 seeds, 256-sample records).
const char* kSmallSpec = R"({
  "name": "small",
  "stimulus": {"type": "tone", "frequency_hz": 10e6, "record_length": 256},
  "measurement": {"type": "dynamic"},
  "seeds": {"first": 42, "count": 2},
  "sweep": [{"key": "die.conversion_rate_hz", "values": [60e6, 110e6]}]
})";

/// The same document with every object's keys reordered.
const char* kSmallSpecReordered = R"({
  "sweep": [{"values": [60e6, 110e6], "key": "die.conversion_rate_hz"}],
  "seeds": {"count": 2, "first": 42},
  "measurement": {"type": "dynamic"},
  "stimulus": {"record_length": 256, "frequency_hz": 10e6, "type": "tone"},
  "name": "small"
})";

std::string validation_error(const std::string& text) {
  try {
    (void)parse_spec_text(text);
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

/// Fixture managing a per-test scratch directory for caches and reports.
class ScenarioTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("adc_scenario_" + std::to_string(::getpid()) + "_" + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& leaf) const {
    return (dir_ / leaf).string();
  }

  fs::path dir_;
};

}  // namespace

TEST(ScenarioSpec, ValidationErrorsNameTheOffendingKey) {
  EXPECT_NE(validation_error(R"({"measurement": {"type": "dynamic"}})")
                .find("missing required key \"name\""),
            std::string::npos);
  EXPECT_NE(validation_error(R"({"name": "x"})")
                .find("missing required key \"measurement\""),
            std::string::npos);
  EXPECT_NE(validation_error(
                R"({"name": "x", "die": {"frobnicate": 1}, "measurement": {"type": "power"}})")
                .find("unknown key \"die.frobnicate\""),
            std::string::npos);
  EXPECT_NE(validation_error(R"({"name": "x", "stimulus": {"record_length": 1000},
                                 "measurement": {"type": "dynamic"}})")
                .find("\"stimulus.record_length\" must be a power of two"),
            std::string::npos);
  EXPECT_NE(validation_error(
                R"({"name": "x", "measurement": {"type": "yield", "metric": "sndr_db"}})")
                .find("missing required key \"measurement.limit\""),
            std::string::npos);
  EXPECT_NE(validation_error(
                R"({"name": "x", "measurement": {"type": "dynamic", "samples": 8192}})")
                .find("\"measurement.samples\" only applies"),
            std::string::npos);
  EXPECT_NE(validation_error(R"({"name": "x", "measurement": {"type": "power"},
                                 "sweep": [{"key": "die.oops", "values": [1]}]})")
                .find("unknown sweep key \"die.oops\""),
            std::string::npos);
  EXPECT_NE(validation_error(R"({"name": "x", "measurement": {"type": "power"},
      "sweep": [{"key": "die.vdd", "values": [1.8]}, {"key": "die.vdd", "values": [1.7]}]})")
                .find("duplicate sweep axis \"die.vdd\""),
            std::string::npos);
  EXPECT_NE(validation_error(R"({"name": "x", "stimulus": {"type": "ramp"},
                                 "measurement": {"type": "dynamic"}})")
                .find("\"stimulus.type\" \"ramp\" is incompatible"),
            std::string::npos);
  EXPECT_NE(validation_error(R"({"name": "x", "measurement": {"type": "power"},
      "sweep": [{"key": "stimulus.frequency_hz", "values": [1e6]}]})")
                .find("does not apply to measurement type \"power\""),
            std::string::npos);
}

TEST(ScenarioSpec, ExpansionIsRowMajorWithSeedsInnermost) {
  const auto spec = parse_spec_text(R"({
    "name": "grid", "measurement": {"type": "power"},
    "seeds": {"first": 7, "count": 2},
    "sweep": [
      {"key": "die.conversion_rate_hz", "values": [10e6, 20e6]},
      {"key": "die.temperature_k", "values": [250.0, 300.0, 350.0]}
    ]})");
  const auto jobs = expand_jobs(spec);
  ASSERT_EQ(jobs.size(), 12u);
  // First axis slowest, seeds innermost.
  EXPECT_EQ(jobs[0].axis_values, (std::vector<double>{10e6, 250.0}));
  EXPECT_EQ(jobs[0].seed, 7u);
  EXPECT_EQ(jobs[1].axis_values, (std::vector<double>{10e6, 250.0}));
  EXPECT_EQ(jobs[1].seed, 8u);
  EXPECT_EQ(jobs[2].axis_values, (std::vector<double>{10e6, 300.0}));
  EXPECT_EQ(jobs[11].axis_values, (std::vector<double>{20e6, 350.0}));
  for (std::size_t i = 0; i < jobs.size(); ++i) EXPECT_EQ(jobs[i].index, i);
}

TEST(ScenarioHash, StableAcrossKeyOrder) {
  const auto a = parse_spec_text(kSmallSpec);
  const auto b = parse_spec_text(kSmallSpecReordered);
  EXPECT_EQ(spec_hash(a), spec_hash(b));
  const auto jobs_a = expand_jobs(a);
  const auto jobs_b = expand_jobs(b);
  ASSERT_EQ(jobs_a.size(), jobs_b.size());
  for (std::size_t i = 0; i < jobs_a.size(); ++i) {
    EXPECT_EQ(job_hash(resolve_job(a, jobs_a[i])), job_hash(resolve_job(b, jobs_b[i])));
  }
}

TEST(ScenarioHash, DistinguishesPhysics) {
  const auto spec = parse_spec_text(kSmallSpec);
  const auto jobs = expand_jobs(spec);
  // Different seed, different operating point -> different key.
  EXPECT_NE(job_hash(resolve_job(spec, jobs[0])), job_hash(resolve_job(spec, jobs[1])));
  EXPECT_NE(job_hash(resolve_job(spec, jobs[0])), job_hash(resolve_job(spec, jobs[2])));
  // A changed stimulus changes the key.
  auto longer = parse_spec_text(std::string(kSmallSpec));
  longer.stimulus.record_length = 512;
  EXPECT_NE(job_hash(resolve_job(spec, jobs[0])), job_hash(resolve_job(longer, jobs[0])));
  // The name is presentation, not physics.
  auto renamed = json::parse(kSmallSpec);
  renamed.set("name", "renamed");
  EXPECT_EQ(spec_hash(spec), spec_hash(parse_spec(renamed)));
}

TEST_F(ScenarioTest, WarmRunIsBitIdenticalAndSubmitsZeroPoolJobs) {
  const auto spec = parse_spec_text(kSmallSpec);
  RunOptions options;
  options.cache_dir = path("cache");
  ScenarioRunner runner(options);

  const auto cold = runner.run(spec);
  EXPECT_EQ(cold.jobs_total, 4u);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.computed, 4u);

  const auto warm = runner.run(spec);
  EXPECT_EQ(warm.cache_hits, 4u);
  EXPECT_EQ(warm.computed, 0u);
  // The report a warm run assembles from cached payloads is byte-identical
  // to the cold run's.
  EXPECT_EQ(json::dump(cold.report), json::dump(warm.report));
  // And a fully cached run never touched the pool: that is the telemetry
  // CI checks in the manifest.
  EXPECT_EQ(warm.pool_before.submitted, warm.pool_after.submitted);
  EXPECT_EQ(warm.pool_before.executed, warm.pool_after.executed);
}

TEST_F(ScenarioTest, CorruptEntryIsEvictedAndRecomputed) {
  const auto spec = parse_spec_text(kSmallSpec);
  RunOptions options;
  options.cache_dir = path("cache");
  ScenarioRunner runner(options);
  const auto cold = runner.run(spec);

  // Truncate one entry on disk.
  fs::path victim;
  for (const auto& entry : fs::recursive_directory_iterator(options.cache_dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".json") {
      victim = entry.path();
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  {
    std::ofstream out(victim, std::ios::binary | std::ios::trunc);
    out << R"({"hash": "truncated)";
  }

  const auto healed = runner.run(spec);
  EXPECT_EQ(healed.cache_hits, 3u);
  EXPECT_EQ(healed.computed, 1u);
  EXPECT_EQ(healed.cache_evictions, 1u);
  EXPECT_EQ(json::dump(cold.report), json::dump(healed.report));
}

TEST_F(ScenarioTest, EnvVarCacheDirIsHonored) {
  const std::string env_dir = path("env-cache");
  ASSERT_EQ(::setenv("ADC_SCENARIO_CACHE_DIR", env_dir.c_str(), 1), 0);
  EXPECT_EQ(ResultCache::default_root(), env_dir);

  const auto spec = parse_spec_text(R"({
    "name": "envtest",
    "stimulus": {"record_length": 256},
    "measurement": {"type": "dynamic"}
  })");
  ScenarioRunner runner;  // empty cache_dir -> env resolution
  const auto result = runner.run(spec);
  ::unsetenv("ADC_SCENARIO_CACHE_DIR");

  EXPECT_EQ(result.computed, 1u);
  ResultCache cache(env_dir);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(ResultCache::default_root(), ".adc-cache");
}

TEST_F(ScenarioTest, InterruptedRunResumesBitIdentically) {
  const auto spec = parse_spec_text(kSmallSpec);

  // Reference: uninterrupted run in its own cache.
  RunOptions reference_options;
  reference_options.cache_dir = path("cache-reference");
  const auto reference = ScenarioRunner(reference_options).run(spec);

  // Interrupted: a 1-job budget, twice, then the finishing run.
  RunOptions resumed_options;
  resumed_options.cache_dir = path("cache-resumed");
  resumed_options.max_jobs = 1;
  const auto first = ScenarioRunner(resumed_options).run(spec);
  EXPECT_EQ(first.computed, 1u);
  EXPECT_EQ(first.skipped, 3u);
  // Uncomputed points are reported with null metrics.
  EXPECT_TRUE(first.report.find("results")->items()[3].find("metrics")->is_null());

  const auto second = ScenarioRunner(resumed_options).run(spec);
  EXPECT_EQ(second.cache_hits, 1u);
  EXPECT_EQ(second.computed, 1u);

  RunOptions finish_options;
  finish_options.cache_dir = resumed_options.cache_dir;
  const auto final_run = ScenarioRunner(finish_options).run(spec);
  EXPECT_EQ(final_run.cache_hits, 2u);
  EXPECT_EQ(final_run.computed, 2u);
  EXPECT_EQ(final_run.skipped, 0u);

  // The stitched-together run is byte-identical to the uninterrupted one.
  EXPECT_EQ(json::dump(reference.report), json::dump(final_run.report));
}

TEST_F(ScenarioTest, ReportFilesAreWrittenAndStable) {
  const auto spec = parse_spec_text(kSmallSpec);
  RunOptions options;
  options.cache_dir = path("cache");
  options.report_dir = path("reports");
  ScenarioRunner runner(options);
  const auto cold = runner.run(spec);
  ASSERT_FALSE(cold.report_json_path.empty());
  ASSERT_TRUE(fs::exists(cold.report_json_path));
  ASSERT_TRUE(fs::exists(cold.report_csv_path));

  std::ifstream in(cold.report_json_path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  // The file round-trips through the parser and matches the in-memory report.
  EXPECT_EQ(json::dump(json::parse(text)), json::dump(cold.report));

  // CSV: header + one row per job.
  std::ifstream csv(cold.report_csv_path);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(csv, line)) ++lines;
  EXPECT_EQ(lines, 1u + cold.jobs_total);
}

TEST_F(ScenarioTest, CacheStatsAndClear) {
  const auto spec = parse_spec_text(kSmallSpec);
  RunOptions options;
  options.cache_dir = path("cache");
  (void)ScenarioRunner(options).run(spec);

  ResultCache cache(options.cache_dir);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 4u);
  EXPECT_GT(stats.bytes, 0u);
  EXPECT_EQ(cache.clear(), 4u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST_F(ScenarioTest, CacheStatsDocumentIsMachineReadable) {
  RunOptions options;
  options.cache_dir = path("cache");
  (void)ScenarioRunner(options).run(parse_spec_text(kSmallSpec));

  ResultCache cache(options.cache_dir);
  (void)cache.load("0000000000000000");  // one recorded miss
  const auto doc = cache.stats_document();
  EXPECT_EQ(doc.find("cache_dir")->as_string(), cache.root());
  EXPECT_EQ(doc.find("entries")->as_uint64(), 4u);
  EXPECT_GT(doc.find("bytes")->as_uint64(), 0u);
  EXPECT_EQ(doc.find("tmp_files")->as_uint64(), 0u);
  EXPECT_EQ(doc.find("claim_files")->as_uint64(), 0u);
  const auto* session = doc.find("session");
  ASSERT_NE(session, nullptr);
  EXPECT_EQ(session->find("misses")->as_uint64(), 1u);
  EXPECT_EQ(session->find("hits")->as_uint64(), 0u);
  // The document survives a compact round trip (CI parses it with jq).
  EXPECT_EQ(json::dump_compact(json::parse(json::dump(doc))), json::dump_compact(doc));
}

TEST_F(ScenarioTest, UnusableCacheRootIsOneClearError) {
  std::ofstream(path("occupied")) << "a file, not a directory";

  // A file where the root should be: both creation and probe writes fail.
  ResultCache as_file(path("occupied"));
  try {
    as_file.ensure_writable();
    FAIL() << "ensure_writable accepted a plain file as the cache root";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("scenario cache root"), std::string::npos);
    EXPECT_NE(what.find(path("occupied")), std::string::npos);
  }

  // A nested path under that file cannot be created either.
  ResultCache under_file(path("occupied") + "/nested");
  EXPECT_THROW(under_file.ensure_writable(), ConfigError);

  // A cache-aware run reports the same error up front instead of a raw
  // filesystem exception mid-run.
  RunOptions options;
  options.cache_dir = path("occupied");
  EXPECT_THROW((void)ScenarioRunner(options).run(parse_spec_text(kSmallSpec)),
               ConfigError);

  // A writable root passes the same probe.
  ResultCache good(path("cache"));
  EXPECT_NO_THROW(good.ensure_writable());
}

/// The fidelity profile is physics as far as the cache is concerned: the
/// same spec under `fast` must miss every `exact` entry (and vice versa),
/// while a warm re-run of either profile stays 100% hits. A cache that
/// cross-pollinated profiles would silently serve one contract's codes as
/// the other's.
TEST_F(ScenarioTest, CacheIsolatesFidelityProfiles) {
  auto with_fidelity = [](const char* profile) {
    auto doc = json::parse(kSmallSpec);
    auto die = json::JsonValue::object();
    die.set("fidelity", profile);
    doc.set("die", std::move(die));
    return parse_spec(doc);
  };
  const auto exact_spec = with_fidelity("exact");
  const auto fast_spec = with_fidelity("fast");
  EXPECT_NE(spec_hash(exact_spec), spec_hash(fast_spec));

  RunOptions options;
  options.cache_dir = path("cache");
  ScenarioRunner runner(options);

  const auto fast_cold = runner.run(fast_spec);
  EXPECT_EQ(fast_cold.cache_hits, 0u);
  EXPECT_EQ(fast_cold.computed, 4u);

  // The exact run lands in the same cache directory but shares no entries.
  const auto exact_cold = runner.run(exact_spec);
  EXPECT_EQ(exact_cold.cache_hits, 0u);
  EXPECT_EQ(exact_cold.computed, 4u);

  // Warm re-runs of both profiles after the interleaving: all hits, and the
  // reports are byte-identical to their own cold run — not to each other's.
  const auto exact_warm = runner.run(exact_spec);
  EXPECT_EQ(exact_warm.cache_hits, 4u);
  EXPECT_EQ(exact_warm.computed, 0u);
  EXPECT_EQ(json::dump(exact_warm.report), json::dump(exact_cold.report));

  const auto fast_warm = runner.run(fast_spec);
  EXPECT_EQ(fast_warm.cache_hits, 4u);
  EXPECT_EQ(fast_warm.computed, 0u);
  EXPECT_EQ(json::dump(fast_warm.report), json::dump(fast_cold.report));

  EXPECT_NE(json::dump(fast_cold.report), json::dump(exact_cold.report));
}

/// A fast-contract bump (kFastContractVersion, folded into the golden-code
/// fingerprint) must retire every cache entry written under the previous
/// contract: v1 keys are unreachable from a v2 build, so a v2 run recomputes
/// everything and never reads — or clobbers — a v1 entry, even in the same
/// cache directory. This is the isolation the version constant buys beyond
/// the behavioral code digest (which could in principle collide across a
/// contract change that happens to reproduce the probe codes — exactly what
/// the v1 -> v2 division-free draw-math revision did).
TEST_F(ScenarioTest, CacheIsolatesFastContractVersions) {
  auto doc = json::parse(kSmallSpec);
  auto die = json::JsonValue::object();
  die.set("fidelity", "fast");
  doc.set("die", std::move(die));
  const auto spec = parse_spec(doc);

  const std::uint64_t version = adc::common::kFastContractVersion;
  ASSERT_GE(version, 2u);
  const std::uint64_t old_fp = golden_code_fingerprint_for(version - 1);
  EXPECT_NE(old_fp, golden_code_fingerprint());
  EXPECT_EQ(golden_code_fingerprint_for(version), golden_code_fingerprint());

  // Plant a poison payload under every job's *previous-contract* key.
  const auto plan = plan_scenario(spec);
  const auto jobs = expand_jobs(spec);
  ASSERT_EQ(plan.hashes.size(), jobs.size());
  ResultCache cache(path("cache"));
  cache.ensure_writable();
  std::vector<std::string> old_keys;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto job = resolve_job(spec, jobs[i]);
    EXPECT_EQ(plan.hashes[i], job_hash_with_fingerprint(job, golden_code_fingerprint()));
    const std::string old_key = job_hash_with_fingerprint(job, old_fp);
    EXPECT_NE(old_key, plan.hashes[i]) << "job " << i;
    auto poison = json::JsonValue::object();
    poison.set("poison", true);
    cache.store(old_key, poison);
    old_keys.push_back(old_key);
  }

  // The current build plans only current-version keys: the run sees a cold
  // cache and computes every job.
  RunOptions options;
  options.cache_dir = path("cache");
  ScenarioRunner runner(options);
  const auto cold = runner.run(spec);
  EXPECT_EQ(cold.cache_hits, 0u);
  EXPECT_EQ(cold.computed, jobs.size());

  // ... and the old-contract entries are still there, untouched: retiring a
  // contract never rewrites history (a rollback build would still find its
  // own entries intact).
  for (const auto& key : old_keys) {
    const auto entry = cache.load(key);
    ASSERT_TRUE(entry.has_value()) << key;
    EXPECT_TRUE(entry->contains("poison")) << key;
  }

  // Warm re-run under the current contract: all hits.
  const auto warm = runner.run(spec);
  EXPECT_EQ(warm.cache_hits, jobs.size());
  EXPECT_EQ(warm.computed, 0u);
}

namespace {

/// yield200's shape under the fast profile, shrunk for CI: 16 dies (two
/// full batch die-blocks), 2k records, same tone, metric and limit.
const char* kFastYieldSpec = R"({
  "name": "yield_fast",
  "stimulus": {
    "type": "tone",
    "frequency_hz": 10e6,
    "amplitude_fraction": 0.985,
    "record_length": 2048
  },
  "measurement": {"type": "yield", "metric": "sndr_db", "limit": 63.0},
  "die": {"fidelity": "fast"},
  "seeds": {"first": 42, "count": 16}
})";

}  // namespace

TEST_F(ScenarioTest, ClaimLifecycleAndStaleSteal) {
  ResultCache cache(path("cache"));
  cache.ensure_writable();
  const std::string hash = "00c0ffee00c0ffee";

  // Fresh acquisition; a second owner inside the lease is busy; the holder
  // re-acquires (re-entrant) and refreshes.
  EXPECT_EQ(cache.try_claim(hash, "a", 1000, 500), ClaimOutcome::kAcquired);
  EXPECT_EQ(cache.try_claim(hash, "b", 1200, 500), ClaimOutcome::kBusy);
  EXPECT_EQ(cache.try_claim(hash, "a", 1300, 500), ClaimOutcome::kAcquired);
  EXPECT_TRUE(cache.refresh_claim(hash, "a", 1400));
  EXPECT_FALSE(cache.refresh_claim(hash, "b", 1400));
  const auto info = cache.read_claim(hash);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->owner, "a");
  EXPECT_EQ(info->heartbeat_ms, 1400u);

  // Past the lease the claim is stale: a new owner steals it, and the old
  // owner's refresh fails (it has forfeited the job).
  EXPECT_EQ(cache.try_claim(hash, "b", 2000, 500), ClaimOutcome::kAcquired);
  EXPECT_FALSE(cache.refresh_claim(hash, "a", 2100));
  EXPECT_TRUE(cache.refresh_claim(hash, "b", 2100));

  // Release by a non-owner is a no-op; release by the owner removes it.
  cache.release_claim(hash, "a");
  EXPECT_TRUE(cache.read_claim(hash).has_value());
  cache.release_claim(hash, "b");
  EXPECT_FALSE(cache.read_claim(hash).has_value());
}

TEST_F(ScenarioTest, ClaimContentionHasExactlyOneWinner) {
  // N threads race try_claim on the same hash with distinct owners, released
  // together: the link(2) publish admits exactly one. A claim that became
  // visible before its owner document was written would read as corrupt (=
  // stale) to a racer, which would steal it: a second winner. One round
  // hits that window rarely, so the race runs 200 rounds on fresh hashes.
  ResultCache cache(path("cache"));
  cache.ensure_writable();
  constexpr int kRounds = 200;
  constexpr int kRacers = 8;
  for (int round = 0; round < kRounds; ++round) {
    std::ostringstream hash;
    hash << std::hex << std::setw(16) << std::setfill('0') << 0xc1a10000 + round;
    std::atomic<bool> go{false};
    std::atomic<int> winners{0};
    std::vector<std::thread> racers;
    racers.reserve(kRacers);
    for (int r = 0; r < kRacers; ++r) {
      racers.emplace_back([&cache, &go, &winners, key = hash.str(), r] {
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        if (cache.try_claim(key, "owner" + std::to_string(r), 1000, 60000) ==
            ClaimOutcome::kAcquired) {
          winners.fetch_add(1);
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& t : racers) t.join();
    ASSERT_EQ(winners.load(), 1) << "round " << round;
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.claim_files, static_cast<std::uint64_t>(kRounds));
  EXPECT_EQ(stats.tmp_files, 0u);
}

TEST_F(ScenarioTest, RacingRunnersComputeEachJobExactlyOnce) {
  // Two concurrent executions of the same spec over one cache, each probing
  // the cache and then gating execute_plan on claims through its hooks, one
  // try_claim per execute unit, as fleet workers do: every job is computed
  // by exactly one of them, and both end with the identical (complete or
  // completable) cache bytes. The exact-profile spec runs one job per unit;
  // the fast yield spec forms multi-job units, so a unit can be granted in
  // part.
  for (const char* text : {kSmallSpec, kFastYieldSpec}) {
    const auto spec = parse_spec_text(text);
    const auto plan = plan_scenario(spec);
    const std::size_t jobs = plan.jobs.size();
    const std::string cache_dir = path(spec.name + "-cache");
    ResultCache claims(cache_dir);
    claims.ensure_writable();

    // What one runner's hooks saw: the indices of every acquire call, the
    // positions granted, and the indices of every stored call.
    struct HookLog {
      std::mutex mutex;
      std::vector<std::vector<std::size_t>> offered;
      std::vector<std::size_t> granted;
      std::vector<std::vector<std::size_t>> stored;
    };
    // What one runner did: the probe's hits and execute_plan's tally.
    struct Tally {
      std::size_t cache_hits = 0;
      std::size_t computed = 0;
      std::size_t claimed_elsewhere = 0;
    };
    auto run_claimed = [&](const std::string& owner, HookLog& log) {
      ResultCache cache(cache_dir);
      std::vector<std::optional<json::JsonValue>> payloads(jobs);
      Tally tally;
      for (std::size_t i = 0; i < jobs; ++i) {
        payloads[i] = cache.load(plan.hashes[i]);
        if (payloads[i].has_value()) ++tally.cache_hits;
      }
      ExecuteOptions options;
      options.cache = &cache;
      options.hooks.acquire = [&claims, &plan, &log, owner](std::span<const std::size_t> indices) {
        std::vector<std::string> hashes;
        for (const std::size_t i : indices) hashes.push_back(plan.hashes[i]);
        // Claims are held for the test's duration (never released), so the
        // loser can never recompute a winner's job.
        const auto outcomes = claims.try_claim(hashes, owner, 1000, 60000);
        std::vector<std::size_t> granted;
        for (std::size_t p = 0; p < outcomes.size(); ++p) {
          if (outcomes[p] == ClaimOutcome::kAcquired) granted.push_back(p);
        }
        std::lock_guard<std::mutex> lock(log.mutex);
        log.offered.emplace_back(indices.begin(), indices.end());
        for (const std::size_t p : granted) log.granted.push_back(indices[p]);
        return granted;
      };
      options.hooks.stored = [&log](std::span<const std::size_t> indices) {
        std::lock_guard<std::mutex> lock(log.mutex);
        log.stored.emplace_back(indices.begin(), indices.end());
      };
      const ExecuteOutcome outcome = execute_plan(spec, plan, payloads, options);
      tally.computed = outcome.computed;
      tally.claimed_elsewhere = outcome.claimed_elsewhere;
      return tally;
    };

    Tally a;
    Tally b;
    HookLog log_a;
    HookLog log_b;
    std::thread ta([&] { a = run_claimed("a", log_a); });
    std::thread tb([&] { b = run_claimed("b", log_b); });
    ta.join();
    tb.join();

    // Claims serialize computation: each job is computed by exactly one
    // runner. A job one runner did not compute shows up for it as either a
    // cache hit (stored before its probe) or claimed-elsewhere.
    EXPECT_EQ(a.computed + b.computed, jobs) << spec.name;
    EXPECT_EQ(a.claimed_elsewhere + a.cache_hits, b.computed) << spec.name;
    EXPECT_EQ(b.claimed_elsewhere + b.cache_hits, a.computed) << spec.name;

    // acquire runs at most once per unit: no index is offered twice by one
    // runner. stored fires once per unit with work, naming exactly the
    // granted jobs.
    for (HookLog* log : {&log_a, &log_b}) {
      std::vector<std::size_t> offered;
      std::size_t units_with_work = 0;
      for (const auto& call : log->offered) {
        EXPECT_FALSE(call.empty()) << spec.name;
        offered.insert(offered.end(), call.begin(), call.end());
      }
      std::vector<std::size_t> stored;
      for (const auto& call : log->stored) {
        EXPECT_FALSE(call.empty()) << spec.name;
        stored.insert(stored.end(), call.begin(), call.end());
      }
      std::sort(offered.begin(), offered.end());
      EXPECT_EQ(std::adjacent_find(offered.begin(), offered.end()), offered.end())
          << spec.name << ": an index was offered to acquire twice";
      EXPECT_LE(offered.size(), jobs) << spec.name;
      std::sort(stored.begin(), stored.end());
      std::sort(log->granted.begin(), log->granted.end());
      EXPECT_EQ(stored, log->granted) << spec.name;
      for (const auto& call : log->offered) {
        const bool any = std::any_of(call.begin(), call.end(), [&](std::size_t i) {
          return std::binary_search(log->granted.begin(), log->granted.end(), i);
        });
        if (any) ++units_with_work;
      }
      EXPECT_EQ(log->stored.size(), units_with_work) << spec.name;
    }
    EXPECT_EQ(log_a.granted.size(), a.computed) << spec.name;
    EXPECT_EQ(log_b.granted.size(), b.computed) << spec.name;

    // The shared cache holds every payload, byte-identical to an unraced run
    // in a fresh cache.
    RunOptions reference;
    reference.cache_dir = path(spec.name + "-cache-ref");
    const auto ref = ScenarioRunner(reference).run(spec);
    ResultCache raced(cache_dir);
    ResultCache unraced(reference.cache_dir);
    for (const auto& hash : plan.hashes) {
      const auto raced_payload = raced.load(hash);
      const auto ref_payload = unraced.load(hash);
      ASSERT_TRUE(raced_payload.has_value()) << spec.name;
      ASSERT_TRUE(ref_payload.has_value()) << spec.name;
      EXPECT_EQ(json::dump(*raced_payload), json::dump(*ref_payload)) << spec.name;
    }
    // A warm re-run over the raced cache re-emits the reference bytes.
    RunOptions warm;
    warm.cache_dir = cache_dir;
    EXPECT_EQ(json::dump(ScenarioRunner(warm).run(spec).report), json::dump(ref.report))
        << spec.name;
  }
}

TEST_F(ScenarioTest, OrphanedSidecarsAreCountedAndSweptStale) {
  const auto spec = parse_spec_text(kSmallSpec);
  RunOptions options;
  options.cache_dir = path("cache");
  (void)ScenarioRunner(options).run(spec);

  ResultCache cache(options.cache_dir);
  // Litter the root the way a killed process would: an orphaned store
  // temporary, one stale claim, one fresh claim.
  fs::create_directories(fs::path(cache.root()) / "ab");
  std::ofstream((fs::path(cache.root()) / "ab" / "abcd000000000000.json.tmp99").string())
      << "{partial";
  ASSERT_EQ(cache.try_claim("00000000000000aa", "dead", 1000, 60000),
            ClaimOutcome::kAcquired);
  ASSERT_EQ(cache.try_claim("00000000000000bb", "live", 100000, 60000),
            ClaimOutcome::kAcquired);

  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, 4u);  // litter is invisible to the entry count
  EXPECT_EQ(stats.tmp_files, 1u);
  EXPECT_EQ(stats.claim_files, 2u);

  // The stale sweep removes the temporary and the expired claim; the fresh
  // claim (a live fleet's working set) and every entry survive.
  const auto sweep = cache.clear_stale(100000, 60000);
  EXPECT_EQ(sweep.tmp_removed, 1u);
  EXPECT_EQ(sweep.claims_removed, 1u);
  const auto after = cache.stats();
  EXPECT_EQ(after.entries, 4u);
  EXPECT_EQ(after.tmp_files, 0u);
  EXPECT_EQ(after.claim_files, 1u);
  EXPECT_FALSE(cache.read_claim("00000000000000aa").has_value());
  EXPECT_TRUE(cache.read_claim("00000000000000bb").has_value());

  // A full clear also removes the remaining claim sidecar.
  EXPECT_EQ(cache.clear(), 4u);
  EXPECT_EQ(cache.stats().claim_files, 0u);
}

TEST_F(ScenarioTest, BatchedYieldRunIsBitIdenticalToScalarExecution) {
  // The acceptance pin of the batch wiring: a fast-profile yield sweep
  // routed through the batch conversion engine must leave the exact cache
  // bytes and report bytes a per-job scalar execution produces.
  const auto spec = parse_spec_text(kFastYieldSpec);
  const auto plan = plan_scenario(spec);
  ASSERT_EQ(plan.jobs.size(), 16u);

  // Scalar reference: every job through the public per-job entry point.
  std::vector<std::optional<json::JsonValue>> scalar(plan.jobs.size());
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    scalar[i] = ScenarioRunner::execute_job(resolve_job(spec, plan.jobs[i]));
  }
  const auto scalar_report = build_report(spec, plan, scalar);

  RunOptions options;
  options.cache_dir = path("cache");
  const auto batched = ScenarioRunner(options).run(spec);
  EXPECT_EQ(batched.computed, 16u);
  EXPECT_EQ(json::dump(batched.report), json::dump(scalar_report));

  // Same content under the same content addresses: every cached payload
  // byte-matches the scalar payload for its hash.
  ResultCache cache(options.cache_dir);
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    const auto entry = cache.load(plan.hashes[i]);
    ASSERT_TRUE(entry.has_value()) << "missing cache entry for job " << i;
    EXPECT_EQ(json::dump(*entry), json::dump(*scalar[i])) << "payload mismatch at job " << i;
  }

  // The yield summary survived the batched path (it requires every payload
  // to carry the metric).
  const auto* summary = batched.report.find("summary");
  ASSERT_NE(summary, nullptr);
  EXPECT_EQ(summary->find("metric")->as_string(), "sndr_db");
}

TEST_F(ScenarioTest, BatchedYieldHandlesScatteredCacheHitsAndThreadCounts) {
  // Pre-seeding scattered jobs from the scalar path leaves non-consecutive
  // misses, so the execute phase forms ragged die-blocks over
  // non-contiguous seeds; the merged report must still match end to end,
  // at any thread count.
  const auto spec = parse_spec_text(kFastYieldSpec);
  const auto plan = plan_scenario(spec);

  std::vector<std::optional<json::JsonValue>> scalar(plan.jobs.size());
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    scalar[i] = ScenarioRunner::execute_job(resolve_job(spec, plan.jobs[i]));
  }
  const auto scalar_report = build_report(spec, plan, scalar);

  RunOptions scattered;
  scattered.cache_dir = path("cache-scattered");
  {
    ResultCache cache(scattered.cache_dir);
    cache.ensure_writable();
    for (const std::size_t i : {1u, 6u, 7u, 12u}) cache.store(plan.hashes[i], *scalar[i]);
  }
  const auto resumed = ScenarioRunner(scattered).run(spec);
  EXPECT_EQ(resumed.cache_hits, 4u);
  EXPECT_EQ(resumed.computed, 12u);
  EXPECT_EQ(json::dump(resumed.report), json::dump(scalar_report));

  for (const unsigned threads : {1u, 3u}) {
    RunOptions options;
    options.cache_dir = path("cache-t" + std::to_string(threads));
    options.threads = threads;
    const auto run = ScenarioRunner(options).run(spec);
    EXPECT_EQ(json::dump(run.report), json::dump(scalar_report))
        << "report drifted at threads=" << threads;
  }
}

namespace {

/// A fixed payload for the cache byte pins: a double with a full 17-digit
/// spelling, an unsigned integer, a string, a nested object and an array.
json::JsonValue pinned_payload() {
  auto nested = json::JsonValue::object();
  nested.set("snr_db", 69.06033533331195);
  nested.set("missing_codes", std::uint64_t{0});
  auto bins = json::JsonValue::array();
  bins.push_back(-0.25);
  bins.push_back(1.5);
  auto payload = json::JsonValue::object();
  payload.set("sndr_db", 65.04805467847734);
  payload.set("seed", std::uint64_t{42});
  payload.set("label", "pin");
  payload.set("nested", std::move(nested));
  payload.set("bins", std::move(bins));
  return payload;
}

std::string read_bytes(const fs::path& file) {
  std::ifstream in(file, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

}  // namespace

/// The on-disk bytes of a one-entry store are a compatibility contract:
/// caches written by earlier builds must keep loading, and a one-entry store
/// must keep writing exactly this file.
TEST_F(ScenarioTest, OneEntryStoreWritesPinnedBytes) {
  ResultCache cache(path("cache"));
  cache.ensure_writable();
  const std::string hash = "6b8b4567327b23c6";
  cache.store(hash, pinned_payload());
  const std::string expected =
      "{\n"
      "  \"hash\": \"6b8b4567327b23c6\",\n"
      "  \"schema_version\": 2,\n"
      "  \"payload\": {\n"
      "    \"sndr_db\": 65.04805467847734,\n"
      "    \"seed\": 42,\n"
      "    \"label\": \"pin\",\n"
      "    \"nested\": {\n"
      "      \"snr_db\": 69.06033533331195,\n"
      "      \"missing_codes\": 0\n"
      "    },\n"
      "    \"bins\": [\n"
      "      -0.25,\n"
      "      1.5\n"
      "    ]\n"
      "  }\n"
      "}\n";
  EXPECT_EQ(read_bytes(fs::path(cache.root()) / "6b" / (hash + ".json")), expected);
  EXPECT_EQ(cache.stores(), 1u);
}

namespace {

/// `count` distinct well-formed hashes spread over the fan-out directories.
std::vector<std::string> synthetic_hashes(std::size_t count, std::uint64_t salt) {
  std::vector<std::string> hashes;
  for (std::size_t i = 0; i < count; ++i) {
    std::ostringstream hash;
    hash << std::hex << std::setw(16) << std::setfill('0')
         << ((0x9e3779b97f4a7c15ULL * (i + 1)) ^ salt);
    hashes.push_back(hash.str());
  }
  return hashes;
}

/// The pinned payload, made distinct per entry.
json::JsonValue numbered_payload(std::size_t i) {
  auto payload = pinned_payload();
  payload.set("seed", static_cast<std::uint64_t>(i));
  return payload;
}

std::vector<CacheEntry> entries_of(const std::vector<std::string>& hashes,
                                   const std::vector<json::JsonValue>& payloads,
                                   std::size_t first, std::size_t count) {
  std::vector<CacheEntry> entries;
  for (std::size_t i = first; i < first + count; ++i) entries.push_back({hashes[i], payloads[i]});
  return entries;
}

fs::path entry_file(const ResultCache& cache, const std::string& hash) {
  return fs::path(cache.root()) / hash.substr(0, 2) / (hash + ".json");
}

struct stat stat_of(const fs::path& file) {
  struct stat st {};
  EXPECT_EQ(::stat(file.c_str(), &st), 0) << file;
  return st;
}

/// The scalar reference for kFastYieldSpec: every payload and the report.
struct FastYieldReference {
  ScenarioSpec spec = parse_spec_text(kFastYieldSpec);
  ScenarioPlan plan = plan_scenario(spec);
  std::vector<std::optional<json::JsonValue>> payloads;
  std::string report;

  FastYieldReference() {
    for (const auto& job : plan.jobs) {
      payloads.push_back(ScenarioRunner::execute_job(resolve_job(spec, job)));
    }
    report = json::dump(build_report(spec, plan, payloads));
  }
};

}  // namespace

TEST_F(ScenarioTest, PackStoreIsOneInodeAndLoadsLikeOneEntryStores) {
  const auto hashes = synthetic_hashes(32, 0);
  std::vector<json::JsonValue> payloads;
  for (std::size_t i = 0; i < hashes.size(); ++i) payloads.push_back(numbered_payload(i));

  ResultCache packed(path("packed"));
  packed.ensure_writable();
  packed.store(entries_of(hashes, payloads, 0, hashes.size()));
  EXPECT_EQ(packed.stores(), 32u);

  ResultCache single(path("single"));
  single.ensure_writable();
  std::string wrapped = "{\"pack\": [\n";
  std::uint64_t single_bytes = 0;
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    single.store(hashes[i], payloads[i]);
    const std::string bytes = read_bytes(entry_file(single, hashes[i]));
    single_bytes += bytes.size();
    wrapped += (i == 0 ? "" : ",\n") + bytes;
  }
  wrapped += "]}\n";

  // One inode behind all 32 names, holding the 32 one-entry files' bytes,
  // wrapped into one JSON document.
  const struct stat first = stat_of(entry_file(packed, hashes[0]));
  EXPECT_EQ(first.st_nlink, 32u);
  for (const auto& hash : hashes) {
    EXPECT_EQ(stat_of(entry_file(packed, hash)).st_ino, first.st_ino) << hash;
  }
  EXPECT_EQ(read_bytes(entry_file(packed, hashes[0])), wrapped);
  EXPECT_TRUE(json::parse(wrapped).is_object());

  // stats() counts 32 names but the pack's bytes once.
  const auto stats = packed.stats();
  EXPECT_EQ(stats.entries, 32u);
  EXPECT_EQ(stats.bytes, wrapped.size());
  EXPECT_EQ(stats.tmp_files, 0u);
  EXPECT_EQ(single.stats().bytes, single_bytes);

  for (const auto& hash : hashes) {
    const auto from_pack = packed.load(hash);
    const auto from_single = single.load(hash);
    ASSERT_TRUE(from_pack.has_value()) << hash;
    ASSERT_TRUE(from_single.has_value()) << hash;
    EXPECT_EQ(json::dump(*from_pack), json::dump(*from_single)) << hash;
  }
  EXPECT_EQ(packed.hits(), 32u);
  EXPECT_EQ(packed.evictions(), 0u);
}

TEST_F(ScenarioTest, OneFilePerEntryCacheLoadsCompletely) {
  // Hand-write the one-file-per-entry layout: one envelope per file, as
  // earlier builds stored every job. A packing build serves all of it.
  const FastYieldReference ref;
  RunOptions options;
  options.cache_dir = path("cache");
  for (std::size_t i = 0; i < ref.plan.hashes.size(); ++i) {
    auto envelope = json::JsonValue::object();
    envelope.set("hash", ref.plan.hashes[i]);
    envelope.set("schema_version", kScenarioSchemaVersion);
    envelope.set("payload", *ref.payloads[i]);
    const fs::path file =
        fs::path(options.cache_dir) / ref.plan.hashes[i].substr(0, 2) /
        (ref.plan.hashes[i] + ".json");
    fs::create_directories(file.parent_path());
    std::ofstream(file, std::ios::binary) << json::dump(envelope);
  }
  const auto warm = ScenarioRunner(options).run(ref.spec);
  EXPECT_EQ(warm.cache_hits, ref.plan.jobs.size());
  EXPECT_EQ(warm.computed, 0u);
  EXPECT_EQ(warm.cache_evictions, 0u);
  EXPECT_EQ(json::dump(warm.report), ref.report);
}

TEST_F(ScenarioTest, TruncatedPackEvictsEverySibling) {
  const FastYieldReference ref;
  RunOptions options;
  options.cache_dir = path("cache");
  options.threads = 1;
  const auto cold = ScenarioRunner(options).run(ref.spec);
  ASSERT_EQ(json::dump(cold.report), ref.report);

  // Truncate one pack through one of its names: every name shares the inode.
  ResultCache cache(options.cache_dir);
  fs::path victim;
  for (const auto& hash : ref.plan.hashes) {
    if (stat_of(entry_file(cache, hash)).st_nlink > 1) {
      victim = entry_file(cache, hash);
      break;
    }
  }
  ASSERT_FALSE(victim.empty()) << "the fast yield run formed no multi-entry pack";
  const struct stat pack = stat_of(victim);
  fs::resize_file(victim, static_cast<std::uintmax_t>(pack.st_size) / 2);

  const auto healed = ScenarioRunner(options).run(ref.spec);
  EXPECT_EQ(healed.cache_evictions, pack.st_nlink);
  EXPECT_EQ(healed.computed, pack.st_nlink);
  EXPECT_EQ(healed.cache_hits, ref.plan.jobs.size() - pack.st_nlink);
  EXPECT_EQ(json::dump(healed.report), ref.report);
}

TEST_F(ScenarioTest, LinkToPackLackingItsHashIsEvicted) {
  const auto hashes = synthetic_hashes(3, 0x5a5a);
  std::vector<json::JsonValue> payloads{numbered_payload(0), numbered_payload(1),
                                        numbered_payload(2)};
  ResultCache cache(path("cache"));
  cache.ensure_writable();
  cache.store(entries_of(hashes, payloads, 0, 2));

  // Plant a name for the third hash linked to the pack of the first two.
  const fs::path planted = entry_file(cache, hashes[2]);
  fs::create_directories(planted.parent_path());
  fs::create_hard_link(entry_file(cache, hashes[0]), planted);

  EXPECT_FALSE(cache.load(hashes[2]).has_value());
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(fs::exists(planted));
  // The pack's own names still serve their payloads.
  for (std::size_t i = 0; i < 2; ++i) {
    const auto payload = cache.load(hashes[i]);
    ASSERT_TRUE(payload.has_value());
    EXPECT_EQ(json::dump(*payload), json::dump(payloads[i]));
  }
}

TEST_F(ScenarioTest, CrashMidPublishLeavesOnlyTemporariesAndResumes) {
  const FastYieldReference ref;
  RunOptions options;
  options.cache_dir = path("cache");

  // A writer killed mid-publish: the first 8 jobs' pack is written, its
  // names 0..3 are published, 4..6 are not, and the pack's own temporary
  // (which the last name, 7, would have taken) is still there.
  ResultCache cache(options.cache_dir);
  cache.ensure_writable();
  std::vector<CacheEntry> entries;
  for (std::size_t i = 0; i < 8; ++i) entries.push_back({ref.plan.hashes[i], *ref.payloads[i]});
  cache.store(entries);
  const fs::path last = entry_file(cache, ref.plan.hashes[7]);
  fs::rename(last, last.string() + ".tmp4242_0");
  for (std::size_t i = 4; i < 7; ++i) fs::remove(entry_file(cache, ref.plan.hashes[i]));

  const auto litter = cache.stats();
  EXPECT_EQ(litter.entries, 4u);
  EXPECT_EQ(litter.tmp_files, 1u);
  EXPECT_EQ(cache.clear_stale(0, 0).tmp_removed, 1u);
  EXPECT_EQ(cache.stats().tmp_files, 0u);

  const auto resumed = ScenarioRunner(options).run(ref.spec);
  EXPECT_EQ(resumed.cache_hits, 4u);
  EXPECT_EQ(resumed.computed, ref.plan.jobs.size() - 4);
  EXPECT_EQ(resumed.cache_evictions, 0u);
  EXPECT_EQ(json::dump(resumed.report), ref.report);
}

TEST_F(ScenarioTest, OverlappingPackStoresFromTwoThreadsAllLoad) {
  // Two writers store overlapping units, as when a fleet worker steals a
  // stale claim and both compute the shared jobs: the last writer of each
  // name wins, and every name serves its own payload.
  const auto hashes = synthetic_hashes(48, 0xfeed);
  std::vector<json::JsonValue> payloads;
  for (std::size_t i = 0; i < hashes.size(); ++i) payloads.push_back(numbered_payload(i));
  ResultCache cache(path("cache"));
  cache.ensure_writable();
  constexpr int kRounds = 20;
  std::atomic<bool> go{false};
  auto writer = [&](std::size_t first) {
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    for (int round = 0; round < kRounds; ++round) {
      cache.store(entries_of(hashes, payloads, first, 32));
    }
  };
  std::thread a(writer, 0);
  std::thread b(writer, 16);
  go.store(true, std::memory_order_release);
  a.join();
  b.join();

  EXPECT_EQ(cache.stores(), 2u * kRounds * 32u);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.entries, hashes.size());
  EXPECT_EQ(stats.tmp_files, 0u);
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    const auto payload = cache.load(hashes[i]);
    ASSERT_TRUE(payload.has_value()) << hashes[i];
    EXPECT_EQ(json::dump(*payload), json::dump(payloads[i])) << hashes[i];
  }
  EXPECT_EQ(cache.evictions(), 0u);
}

namespace {

fs::path claim_file(const ResultCache& cache, const std::string& hash) {
  return fs::path(cache.root()) / hash.substr(0, 2) / (hash + ".claim");
}

}  // namespace

TEST_F(ScenarioTest, UnitClaimLinksEveryNameToOneInode) {
  ResultCache cache(path("cache"));
  cache.ensure_writable();
  const auto hashes = synthetic_hashes(32, 0xc1a1);
  const auto outcomes = cache.try_claim(hashes, "unit", 1000, 60000);
  ASSERT_EQ(outcomes.size(), hashes.size());
  for (const auto outcome : outcomes) EXPECT_EQ(outcome, ClaimOutcome::kAcquired);

  // One claim file behind all 32 names, and no temporary left.
  const struct stat first = stat_of(claim_file(cache, hashes[0]));
  EXPECT_EQ(first.st_nlink, hashes.size());
  for (const auto& hash : hashes) {
    EXPECT_EQ(stat_of(claim_file(cache, hash)).st_ino, first.st_ino) << hash;
    const auto info = cache.read_claim(hash);
    ASSERT_TRUE(info.has_value()) << hash;
    EXPECT_EQ(info->owner, "unit");
    EXPECT_EQ(info->heartbeat_ms, 1000u);
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.claim_files, hashes.size());
  EXPECT_EQ(stats.tmp_files, 0u);

  // The claim document is the one-hash claim's, byte for byte.
  ResultCache single(path("single"));
  ASSERT_EQ(single.try_claim(hashes[0], "unit", 1000, 60000), ClaimOutcome::kAcquired);
  EXPECT_EQ(read_bytes(claim_file(cache, hashes[0])), read_bytes(claim_file(single, hashes[0])));
  EXPECT_EQ(single.stats().tmp_files, 0u);

  // A heartbeat round re-stamps every name with one new claim file.
  EXPECT_EQ(cache.refresh_claim(hashes, "unit", 2000), hashes.size());
  const struct stat refreshed = stat_of(claim_file(cache, hashes[0]));
  EXPECT_NE(refreshed.st_ino, first.st_ino);
  EXPECT_EQ(refreshed.st_nlink, hashes.size());
  for (const auto& hash : hashes) {
    EXPECT_EQ(stat_of(claim_file(cache, hash)).st_ino, refreshed.st_ino) << hash;
    EXPECT_EQ(cache.read_claim(hash)->heartbeat_ms, 2000u) << hash;
  }
  EXPECT_EQ(cache.stats().tmp_files, 0u);

  cache.release_claim(hashes, "unit");
  const auto released = cache.stats();
  EXPECT_EQ(released.claim_files, 0u);
  EXPECT_EQ(released.tmp_files, 0u);
}

TEST_F(ScenarioTest, MixedUnitClaimGivesOneOutcomePerHashInOrder) {
  ResultCache cache(path("cache"));
  cache.ensure_writable();
  // 0 and 5 fresh; 1 our own live claim; 2 another owner's live claim; 3
  // another owner's stale claim; 4 a corrupt claim.
  const auto hashes = synthetic_hashes(6, 0x3117);
  ASSERT_EQ(cache.try_claim(hashes[1], "me", 1000, 500), ClaimOutcome::kAcquired);
  ASSERT_EQ(cache.try_claim(hashes[2], "other", 1000, 500), ClaimOutcome::kAcquired);
  ASSERT_EQ(cache.try_claim(hashes[3], "other", 100, 500), ClaimOutcome::kAcquired);
  fs::create_directories(claim_file(cache, hashes[4]).parent_path());
  std::ofstream(claim_file(cache, hashes[4])) << "{\"owner\": ";

  const auto outcomes = cache.try_claim(hashes, "me", 1200, 500);
  const std::vector<ClaimOutcome> expected{ClaimOutcome::kAcquired, ClaimOutcome::kAcquired,
                                           ClaimOutcome::kBusy,     ClaimOutcome::kAcquired,
                                           ClaimOutcome::kAcquired, ClaimOutcome::kAcquired};
  EXPECT_EQ(outcomes, expected);
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    const auto info = cache.read_claim(hashes[i]);
    ASSERT_TRUE(info.has_value()) << i;
    EXPECT_EQ(info->owner, i == 2 ? "other" : "me") << i;
    EXPECT_EQ(info->heartbeat_ms, i == 2 ? 1000u : 1200u) << i;
  }
  // Only the fresh names are links to the call's one claim file.
  const struct stat fresh = stat_of(claim_file(cache, hashes[0]));
  EXPECT_EQ(fresh.st_nlink, 2u);
  EXPECT_EQ(stat_of(claim_file(cache, hashes[5])).st_ino, fresh.st_ino);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.claim_files, hashes.size());
  EXPECT_EQ(stats.tmp_files, 0u);
}

TEST_F(ScenarioTest, RacingUnitClaimsHaveExactlyOneWinnerPerHash) {
  // K threads claim shuffled, overlapping spans of the same 64 hashes with
  // distinct owners, released together: racer 0 spans all 64, the others
  // 48 each. Every hash has exactly one winner.
  ResultCache cache(path("cache"));
  cache.ensure_writable();
  constexpr int kRounds = 20;
  constexpr int kRacers = 6;
  constexpr std::size_t kHashes = 64;
  for (int round = 0; round < kRounds; ++round) {
    const auto hashes = synthetic_hashes(kHashes, 0x7ace0000u + static_cast<unsigned>(round));
    std::vector<std::vector<std::size_t>> spans(kRacers);
    for (int r = 0; r < kRacers; ++r) {
      std::vector<std::size_t> order(kHashes);
      for (std::size_t i = 0; i < kHashes; ++i) order[i] = i;
      std::mt19937 rng(static_cast<std::mt19937::result_type>(round * kRacers + r));
      std::shuffle(order.begin(), order.end(), rng);
      order.resize(r == 0 ? kHashes : 48);
      spans[r] = std::move(order);
    }
    std::vector<std::atomic<int>> winners(kHashes);
    std::atomic<bool> go{false};
    std::vector<std::thread> racers;
    racers.reserve(kRacers);
    for (int r = 0; r < kRacers; ++r) {
      racers.emplace_back([&, r] {
        std::vector<std::string> span;
        for (const std::size_t i : spans[r]) span.push_back(hashes[i]);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        const auto outcomes = cache.try_claim(span, "owner" + std::to_string(r), 1000, 60000);
        for (std::size_t p = 0; p < outcomes.size(); ++p) {
          if (outcomes[p] == ClaimOutcome::kAcquired) winners[spans[r][p]].fetch_add(1);
        }
      });
    }
    go.store(true, std::memory_order_release);
    for (auto& t : racers) t.join();
    for (std::size_t i = 0; i < kHashes; ++i) {
      ASSERT_EQ(winners[i].load(), 1) << "round " << round << " hash " << i;
    }
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.claim_files, kRounds * kHashes);
  EXPECT_EQ(stats.tmp_files, 0u);
}

TEST_F(ScenarioTest, UnitReleaseDeletesOnlyTheNamesStillHeld) {
  ResultCache cache(path("cache"));
  cache.ensure_writable();
  const auto hashes = synthetic_hashes(8, 0x5e1e);
  for (const auto outcome : cache.try_claim(hashes, "a", 1000, 500)) {
    EXPECT_EQ(outcome, ClaimOutcome::kAcquired);
  }
  // Past the lease, "b" steals one name of the unit.
  ASSERT_EQ(cache.try_claim(hashes[3], "b", 2000, 500), ClaimOutcome::kAcquired);

  // "a"'s heartbeat round re-stamps the seven names it still holds.
  EXPECT_EQ(cache.refresh_claim(hashes, "a", 2100), hashes.size() - 1);
  EXPECT_EQ(cache.read_claim(hashes[3])->heartbeat_ms, 2000u);

  cache.release_claim(hashes, "a");
  for (std::size_t i = 0; i < hashes.size(); ++i) {
    EXPECT_EQ(fs::exists(claim_file(cache, hashes[i])), i == 3) << i;
  }
  EXPECT_EQ(cache.read_claim(hashes[3])->owner, "b");
  const auto stats = cache.stats();
  EXPECT_EQ(stats.claim_files, 1u);
  EXPECT_EQ(stats.tmp_files, 0u);
}

TEST_F(ScenarioTest, PartialUnitClaimReleasesCleanly) {
  ResultCache cache(path("cache"));
  cache.ensure_writable();
  // Five hashes in five fan-out directories. Name 1 is another owner's live
  // claim; the fourth fan-out path is a regular file, so the fourth link
  // fails with ENOTDIR.
  const std::vector<std::string> hashes{"1000000000000001", "2000000000000002",
                                        "3000000000000003", "4000000000000004",
                                        "5000000000000005"};
  constexpr std::size_t kFailing = 3;
  ASSERT_EQ(cache.try_claim(hashes[1], "other", 1000, 60000), ClaimOutcome::kAcquired);
  std::ofstream(fs::path(cache.root()) / hashes[kFailing].substr(0, 2)) << "not a directory";

  std::string error;
  try {
    (void)cache.try_claim(hashes, "unit", 1000, 60000);
  } catch (const ConfigError& e) {
    error = e.what();
  }
  EXPECT_NE(error.find(hashes[kFailing] + ".claim"), std::string::npos) << error;
  EXPECT_NE(error.find(std::strerror(ENOTDIR)), std::string::npos) << error;

  // The names this call linked are gone, the other owner's claim survives,
  // and no temporary is left.
  for (std::size_t i = 0; i < kFailing; ++i) {
    EXPECT_EQ(fs::exists(claim_file(cache, hashes[i])), i == 1) << i;
  }
  EXPECT_EQ(cache.read_claim(hashes[1])->owner, "other");
  const auto stats = cache.stats();
  EXPECT_EQ(stats.claim_files, 1u);
  EXPECT_EQ(stats.tmp_files, 0u);
}

TEST_F(ScenarioTest, ClaimHolderGateDeclinesHeldStoredAndBusyJobsAndLinksTheRest) {
  ResultCache cache(path("cache"));
  cache.ensure_writable();
  const auto hashes = synthetic_hashes(6, 0x601d);
  // hashes[4] is another owner's live claim; hashes[5] is stored.
  ASSERT_EQ(cache.try_claim(hashes[4], "other", adc::runtime::wall_clock_ms(), kClaimLeaseMs),
            ClaimOutcome::kAcquired);
  auto payload = json::JsonValue::object();
  payload.set("x", 1.0);
  cache.store(hashes[5], payload);

  {
    ClaimHolder holder(cache, "holder");
    EXPECT_EQ(holder.gate(std::span(hashes.data(), 1)), std::vector<std::size_t>{0});
    // Held in memory: declined although the claim on disk is re-entrant.
    EXPECT_TRUE(holder.gate(std::span(hashes.data(), 1)).empty());
    // The free jobs are granted, the busy and the stored ones declined.
    EXPECT_EQ(holder.gate(std::span(hashes.data() + 1, 5)), (std::vector<std::size_t>{0, 1, 2}));
    // The later claims are links to the first claim file: no new inode.
    const struct stat first = stat_of(claim_file(cache, hashes[0]));
    for (std::size_t i = 1; i < 4; ++i) {
      EXPECT_EQ(stat_of(claim_file(cache, hashes[i])).st_ino, first.st_ino) << i;
      EXPECT_EQ(cache.read_claim(hashes[i])->owner, "holder") << i;
    }
    EXPECT_EQ(cache.read_claim(hashes[4])->owner, "other");
    EXPECT_FALSE(fs::exists(claim_file(cache, hashes[5])));

    // A released job can be granted again.
    holder.release(std::span(hashes.data(), 1));
    EXPECT_FALSE(fs::exists(claim_file(cache, hashes[0])));
    EXPECT_EQ(holder.gate(std::span(hashes.data(), 1)), std::vector<std::size_t>{0});
  }
  // The holder releases what it still holds when it goes; the other owner's
  // claim stays.
  const auto stats = cache.stats();
  EXPECT_EQ(stats.claim_files, 1u);
  EXPECT_EQ(stats.tmp_files, 0u);
}

namespace {

/// Fast-profile sweeps for the mixed-block execute path, 512-sample records.
/// A rate sweep (8 rates x 3 seeds, from 20 to 177.5 MHz so the slow lanes
/// take a capped tone) and an input-frequency sweep (4 tones x 4 seeds)
/// batch across grid points; a temperature sweep (3 temperatures x 5
/// seeds) must stay one unit per grid point.
const char* kFastRateSweepSpec = R"({
  "name": "rate_sweep_fast",
  "stimulus": {"type": "tone", "frequency_hz": 10e6, "record_length": 512},
  "measurement": {"type": "dynamic"},
  "die": {"fidelity": "fast"},
  "seeds": {"first": 42, "count": 3},
  "sweep": [{"key": "die.conversion_rate_hz",
             "values": [20e6, 33e6, 47.5e6, 60e6, 90e6, 110e6, 140e6, 177.5e6]}]
})";

const char* kFastFinSweepSpec = R"({
  "name": "fin_sweep_fast",
  "stimulus": {"type": "tone", "record_length": 512},
  "measurement": {"type": "dynamic"},
  "die": {"fidelity": "fast"},
  "seeds": {"first": 7, "count": 4},
  "sweep": [{"key": "stimulus.frequency_hz", "values": [3e6, 10e6, 21e6, 37e6]}]
})";

const char* kFastTemperatureSweepSpec = R"({
  "name": "temperature_sweep_fast",
  "stimulus": {"type": "tone", "frequency_hz": 10e6, "record_length": 512},
  "measurement": {"type": "dynamic"},
  "die": {"fidelity": "fast"},
  "seeds": {"first": 42, "count": 5},
  "sweep": [{"key": "die.temperature_k", "values": [280.0, 320.0, 360.0]}]
})";

/// Pool jobs one run submitted: its execute units (at threads > 1).
std::uint64_t units_submitted(const RunResult& run) {
  return run.pool_after.submitted - run.pool_before.submitted;
}

/// Runs `text` through ScenarioRunner at threads 1 and 4, cold and with
/// scattered pre-seeded hits, and checks every report and every cache
/// entry against a per-job execute_job run. Returns the execute units of
/// the cold 4-thread run.
std::uint64_t expect_matches_per_job(const std::string& text, const std::string& root) {
  const ScenarioSpec spec = parse_spec_text(text);
  const ScenarioPlan plan = plan_scenario(spec);
  std::vector<std::optional<json::JsonValue>> scalar;
  for (const auto& job : plan.jobs) {
    scalar.push_back(ScenarioRunner::execute_job(resolve_job(spec, job)));
  }
  const std::string want = json::dump(build_report(spec, plan, scalar));

  std::uint64_t units = 0;
  for (const bool seeded : {false, true}) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(testing::Message() << spec.name << " threads=" << threads
                                      << (seeded ? " seeded" : " cold"));
      RunOptions options;
      options.cache_dir = root + "/" + std::to_string(threads) + (seeded ? "s" : "c");
      options.threads = threads;
      std::size_t hits = 0;
      if (seeded) {
        // Scattered hits split the misses into ragged, non-contiguous units.
        ResultCache cache(options.cache_dir);
        cache.ensure_writable();
        for (std::size_t i = 1; i < plan.jobs.size(); i += 5) {
          cache.store(plan.hashes[i], *scalar[i]);
          ++hits;
        }
      }
      const RunResult run = ScenarioRunner(options).run(spec);
      EXPECT_EQ(run.cache_hits, hits);
      EXPECT_EQ(run.computed, plan.jobs.size() - hits);
      EXPECT_EQ(json::dump(run.report), want);
      ResultCache cache(options.cache_dir);
      for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
        const auto entry = cache.load(plan.hashes[i]);
        if (!entry.has_value()) {
          ADD_FAILURE() << "missing cache entry for job " << i;
          continue;
        }
        EXPECT_EQ(json::dump(*entry), json::dump(*scalar[i])) << "payload mismatch at job " << i;
      }
      if (!seeded && threads == 4) units = units_submitted(run);
    }
  }
  return units;
}

}  // namespace

TEST_F(ScenarioTest, RateSweepBatchesAcrossGridPointsBitIdentically) {
  // 24 misses on 4 threads: three 8-die units, each mixing rates, where
  // grouping by grid point would give eight 3-die scalar units.
  EXPECT_EQ(expect_matches_per_job(kFastRateSweepSpec, path("rate")), 3u);
}

TEST_F(ScenarioTest, InputFrequencySweepBatchesAcrossGridPointsBitIdentically) {
  // 16 misses on 4 threads: two 8-die units, each mixing input tones.
  EXPECT_EQ(expect_matches_per_job(kFastFinSweepSpec, path("fin")), 2u);
}

TEST_F(ScenarioTest, TemperatureSweepStillGroupsPerGridPoint) {
  // Temperature is not a lane field: one 5-die unit per grid point.
  EXPECT_EQ(expect_matches_per_job(kFastTemperatureSweepSpec, path("temperature")), 3u);
}

TEST_F(ScenarioTest, ExecuteUnitAcrossGridPointsMatchesExecuteJob) {
  // execute_unit takes any indices: here the last three seeds of the first
  // temperature and all five of the second, which cannot share one kernel
  // block. It returns and stores exactly the per-job payloads.
  const ScenarioSpec spec = parse_spec_text(kFastTemperatureSweepSpec);
  const ScenarioPlan plan = plan_scenario(spec);
  const std::vector<std::size_t> indices{2, 3, 4, 5, 6, 7, 8, 9};
  ASSERT_NE(plan.jobs[indices.front()].axis_values, plan.jobs[indices.back()].axis_values);
  ResultCache cache(path("cache"));
  cache.ensure_writable();
  const auto payloads = execute_unit(spec, plan, indices, &cache);
  ASSERT_EQ(payloads.size(), indices.size());
  for (std::size_t m = 0; m < indices.size(); ++m) {
    const std::string want =
        json::dump(ScenarioRunner::execute_job(resolve_job(spec, plan.jobs[indices[m]])));
    EXPECT_EQ(json::dump(payloads[m]), want) << "job " << indices[m];
    const auto stored = cache.load(plan.hashes[indices[m]]);
    ASSERT_TRUE(stored.has_value()) << "job " << indices[m];
    EXPECT_EQ(json::dump(*stored), want) << "job " << indices[m];
  }
}

TEST(ScenarioSpec, ValidateOfADirectorySaysItCannotOpenIt) {
  // `adc_scenario validate` prints load_spec_file's error: a directory
  // cannot be read, which is not a JSON error.
  const fs::path dir = fs::temp_directory_path() / ("adc_spec_dir_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  std::string message;
  try {
    (void)load_spec_file(dir.string());
  } catch (const ConfigError& e) {
    message = e.what();
  }
  fs::remove_all(dir);
  EXPECT_EQ(message, "scenario spec: cannot open " + dir.string());
}

namespace {

/// Builds one cache layout into an empty cache and returns the names to
/// load, in order.
using CacheLayout = std::function<std::vector<std::string>(ResultCache&)>;

/// Every file name under `root`, relative and sorted.
std::vector<std::string> names_under(const std::string& root) {
  std::vector<std::string> names;
  for (const auto& entry : fs::recursive_directory_iterator(root)) {
    if (entry.is_regular_file()) names.push_back(fs::relative(entry.path(), root).string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

/// Builds `layout` twice, loads its names one by one from the first copy
/// and with one load(span) call from the second: the results, the session
/// counters and the names left on disk must agree. Returns the hits.
std::uint64_t expect_span_load_matches_one_name_loads(const fs::path& dir,
                                                      const CacheLayout& layout) {
  ResultCache single((dir / "single").string());
  ResultCache spanned((dir / "spanned").string());
  single.ensure_writable();
  spanned.ensure_writable();
  const std::vector<std::string> names = layout(single);
  EXPECT_EQ(layout(spanned), names);

  std::vector<std::optional<json::JsonValue>> one;
  for (const auto& hash : names) one.push_back(single.load(hash));
  const auto many = spanned.load(names);
  EXPECT_EQ(many.size(), names.size());
  for (std::size_t k = 0; k < std::min(many.size(), names.size()); ++k) {
    EXPECT_EQ(one[k].has_value(), many[k].has_value()) << "name " << k;
    if (one[k].has_value() && many[k].has_value()) {
      EXPECT_EQ(json::dump(*one[k]), json::dump(*many[k])) << "name " << k;
    }
  }
  EXPECT_EQ(single.hits(), spanned.hits());
  EXPECT_EQ(single.misses(), spanned.misses());
  EXPECT_EQ(single.evictions(), spanned.evictions());
  EXPECT_EQ(names_under(single.root()), names_under(spanned.root()));
  return spanned.hits();
}

/// 16 payloads under synthetic hashes, stored as two packs of 8.
std::vector<std::string> store_two_packs(ResultCache& cache, std::vector<json::JsonValue>& payloads) {
  const auto hashes = synthetic_hashes(16, 0x77);
  payloads.clear();
  for (std::size_t i = 0; i < hashes.size(); ++i) payloads.push_back(numbered_payload(i));
  cache.store(entries_of(hashes, payloads, 0, 8));
  cache.store(entries_of(hashes, payloads, 8, 8));
  return hashes;
}

/// Rewrites the file behind `name` in place (every link sees the change).
void rewrite_in_place(const fs::path& name, const std::string& bytes) {
  std::fstream out(name, std::ios::in | std::ios::out | std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

TEST_F(ScenarioTest, SpanLoadOfInterleavedPacksMatchesOneNameLoads) {
  const auto hits = expect_span_load_matches_one_name_loads(dir_, [](ResultCache& cache) {
    std::vector<json::JsonValue> payloads;
    const auto hashes = store_two_packs(cache, payloads);
    std::vector<std::string> names;
    for (std::size_t i = 0; i < 8; ++i) {
      names.push_back(hashes[i]);
      names.push_back(hashes[8 + i]);
    }
    return names;
  });
  EXPECT_EQ(hits, 16u);
}

TEST_F(ScenarioTest, SpanLoadOfOneEntryStoresAmongPacksMatchesOneNameLoads) {
  const auto hits = expect_span_load_matches_one_name_loads(dir_, [](ResultCache& cache) {
    const auto hashes = synthetic_hashes(24, 0x99);
    std::vector<json::JsonValue> payloads;
    for (std::size_t i = 0; i < hashes.size(); ++i) payloads.push_back(numbered_payload(i));
    cache.store(entries_of(hashes, payloads, 0, 8));
    for (std::size_t i = 8; i < 12; ++i) cache.store(hashes[i], payloads[i]);
    cache.store(entries_of(hashes, payloads, 12, 8));
    for (std::size_t i = 20; i < 24; ++i) cache.store(hashes[i], payloads[i]);
    // A fixed scatter over all 24 names (7 is prime to 24).
    std::vector<std::string> names;
    for (std::size_t k = 0; k < hashes.size(); ++k) names.push_back(hashes[(7 * k) % 24]);
    return names;
  });
  EXPECT_EQ(hits, 24u);
}

TEST_F(ScenarioTest, SpanLoadWithMissingNamesMatchesOneNameLoads) {
  const auto hits = expect_span_load_matches_one_name_loads(dir_, [](ResultCache& cache) {
    std::vector<json::JsonValue> payloads;
    const auto stored = store_two_packs(cache, payloads);
    const auto absent = synthetic_hashes(6, 0xabcd);
    // Absent names between, before and after stored ones, and one stored
    // name asked for twice.
    return std::vector<std::string>{absent[0], stored[0],  absent[1], stored[9], stored[1],
                                    absent[2], absent[3],  stored[9], stored[15], absent[4],
                                    absent[5]};
  });
  EXPECT_EQ(hits, 5u);
}

TEST_F(ScenarioTest, SpanLoadOfATornPackEvictsEachOfItsNames) {
  const auto hits = expect_span_load_matches_one_name_loads(dir_, [](ResultCache& cache) {
    std::vector<json::JsonValue> payloads;
    const auto hashes = store_two_packs(cache, payloads);
    const fs::path victim = entry_file(cache, hashes[0]);
    fs::resize_file(victim, fs::file_size(victim) / 2);
    return hashes;
  });
  EXPECT_EQ(hits, 8u);
  // The torn pack's 8 names are gone; the other pack's 8 names stay.
  EXPECT_EQ(names_under(path("spanned")).size(), 8u);
}

TEST_F(ScenarioTest, SpanLoadOfOneTamperedEnvelopeEvictsOnlyThatName) {
  const auto hits = expect_span_load_matches_one_name_loads(dir_, [](ResultCache& cache) {
    std::vector<json::JsonValue> payloads;
    const auto hashes = store_two_packs(cache, payloads);
    // Give the fourth envelope of the first pack a foreign schema version,
    // byte for byte in place.
    const fs::path pack = entry_file(cache, hashes[0]);
    std::string bytes = read_bytes(pack);
    const std::string header = "\"hash\": \"" + hashes[3] + "\",\n  \"schema_version\": ";
    const std::size_t at = bytes.find(header);
    EXPECT_NE(at, std::string::npos);
    if (at != std::string::npos) bytes[at + header.size()] = '9';
    rewrite_in_place(pack, bytes);
    return hashes;
  });
  EXPECT_EQ(hits, 15u);
  EXPECT_EQ(names_under(path("spanned")).size(), 15u);
}

namespace {

/// yield2k's shape (a fast-profile yield over seeds alone) at a test's
/// cost: 300 dies of 512 samples, so a plan spans five chunks and a run at
/// 4 threads stores packs of up to 32 names.
const char* kYieldShapeSpec = R"({
  "name": "yield_shape",
  "stimulus": {"type": "tone", "frequency_hz": 10e6, "amplitude_fraction": 0.985,
               "record_length": 512},
  "measurement": {"type": "yield", "metric": "sndr_db", "limit": 60.0},
  "die": {"fidelity": "fast"},
  "seeds": {"first": 42, "count": 300}
})";

/// scenarios/yield2k.json: hashing only, no conversion.
const char* kYield2kSpec = R"({
  "name": "yield2k",
  "stimulus": {"type": "tone", "frequency_hz": 10e6, "amplitude_fraction": 0.985,
               "record_length": 2048},
  "measurement": {"type": "yield", "metric": "sndr_db", "limit": 63.0},
  "die": {"fidelity": "fast"},
  "seeds": {"first": 42, "count": 2000}
})";

/// The first error plan_scenario throws for `spec`, or "".
std::string plan_error(const ScenarioSpec& spec, unsigned threads) {
  try {
    (void)plan_scenario(spec, threads);
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

}  // namespace

TEST(ScenarioPlanChunks, HashesAreEqualAtAnyThreadCount) {
  const ScenarioSpec spec = parse_spec_text(kYield2kSpec);
  const ScenarioPlan serial = plan_scenario(spec, 1);
  ASSERT_EQ(serial.hashes.size(), 2000u);
  // The serial reference is the per-job hash itself.
  for (const std::size_t i : {std::size_t{0}, kPlanChunk - 1, kPlanChunk, std::size_t{1999}}) {
    EXPECT_EQ(serial.hashes[i], job_hash(resolve_job(spec, serial.jobs[i]))) << i;
  }
  for (const unsigned threads : {2u, 4u}) {
    const ScenarioPlan plan = plan_scenario(spec, threads);
    EXPECT_EQ(plan.hashes, serial.hashes) << "threads=" << threads;
    EXPECT_EQ(plan.spec_hash, serial.spec_hash);
  }
  // Thread count 0 resolves through the override, as execute_plan's does.
  for (const unsigned threads : {1u, 3u}) {
    const adc::runtime::ScopedThreadOverride pin(threads);
    EXPECT_EQ(plan_scenario(spec, 0).hashes, serial.hashes) << "override " << threads;
  }
}

TEST(ScenarioPlanChunks, InvalidJobFailsWithTheSerialFirstError) {
  // Parsing validates every value; a spec edited afterwards can still hold
  // a job no hash can spell. Here the jobs of the later grid points fail,
  // across several chunks.
  ScenarioSpec spec = parse_spec_text(R"({
    "name": "bad_late_jobs",
    "stimulus": {"type": "tone", "record_length": 512},
    "measurement": {"type": "dynamic"},
    "die": {"fidelity": "fast"},
    "seeds": {"first": 1, "count": 100},
    "sweep": [{"key": "stimulus.frequency_hz", "values": [1e6, 2e6, 3e6, 4e6]}]
  })");
  spec.sweep[0].values[2] = std::numeric_limits<double>::infinity();
  spec.sweep[0].values[3] = std::numeric_limits<double>::quiet_NaN();
  const std::string serial = plan_error(spec, 1);
  EXPECT_NE(serial.find("non-finite"), std::string::npos) << serial;
  for (const unsigned threads : {2u, 4u}) EXPECT_EQ(plan_error(spec, threads), serial);

  // An unknown axis fails every job, the first chunk's first.
  spec.sweep[0].key = "die.oops";
  const std::string unknown = plan_error(spec, 1);
  EXPECT_NE(unknown.find("unknown sweep key \"die.oops\""), std::string::npos) << unknown;
  EXPECT_EQ(plan_error(spec, 4), unknown);
}

TEST_F(ScenarioTest, OneChunkPlanAndProbeSubmitNoPoolJobs) {
  // The 6-job plan and its probe run on the caller at the pool's own width.
  const ScenarioSpec small = parse_spec_text(R"({
    "name": "six",
    "stimulus": {"type": "tone", "frequency_hz": 10e6, "record_length": 256},
    "measurement": {"type": "dynamic"},
    "seeds": {"first": 42, "count": 3},
    "sweep": [{"key": "die.conversion_rate_hz", "values": [60e6, 110e6]}]
  })");
  auto& pool = adc::runtime::global_pool();
  const unsigned width = pool.thread_count();
  ResultCache cache(path("cache"));
  cache.ensure_writable();
  const auto before = pool.counters();
  const ScenarioPlan plan = plan_scenario(small, width);
  ASSERT_EQ(plan.jobs.size(), 6u);
  std::vector<std::optional<json::JsonValue>> payloads(plan.jobs.size());
  EXPECT_EQ(probe_cache(plan, cache, payloads, nullptr, width), 0u);
  EXPECT_EQ(pool.counters().submitted, before.submitted);

  // Past one chunk the passes do reach the pool (when it has workers).
  if (width > 1) {
    const ScenarioSpec wide = parse_spec_text(kYield2kSpec);
    const auto start = pool.counters();
    const ScenarioPlan big = plan_scenario(wide, width);
    std::vector<std::optional<json::JsonValue>> misses(big.jobs.size());
    EXPECT_EQ(probe_cache(big, cache, misses, nullptr, width), 0u);
    EXPECT_EQ(pool.counters().submitted - start.submitted,
              2 * ((big.jobs.size() + kPlanChunk - 1) / kPlanChunk));
  }
}

TEST_F(ScenarioTest, ProbeFillsOnlyEmptyAdmittedSlots) {
  const ScenarioSpec spec = parse_spec_text(kYield2kSpec);
  const ScenarioPlan plan = plan_scenario(spec);
  ResultCache cache(path("cache"));
  cache.ensure_writable();
  // Every third job is stored, in packs of 32 names.
  std::vector<json::JsonValue> stored;
  std::vector<std::size_t> stored_at;
  for (std::size_t i = 0; i < plan.jobs.size(); i += 3) {
    stored.push_back(numbered_payload(i));
    stored_at.push_back(i);
  }
  for (std::size_t first = 0; first < stored.size(); first += 32) {
    std::vector<CacheEntry> entries;
    for (std::size_t k = first; k < std::min(stored.size(), first + 32); ++k) {
      entries.push_back({plan.hashes[stored_at[k]], stored[k]});
    }
    cache.store(entries);
  }
  const auto admitted = [](std::size_t i) { return i % 2 == 0; };
  std::vector<std::optional<json::JsonValue>> payloads(plan.jobs.size());
  payloads[6] = json::JsonValue("kept");  // filled already: not probed
  const std::size_t filled = probe_cache(plan, cache, payloads, admitted, 4);
  std::size_t want = 0;
  for (std::size_t i = 0; i < plan.jobs.size(); ++i) {
    if (i == 6) {
      EXPECT_EQ(payloads[i]->as_string(), "kept");
      continue;
    }
    const bool expect = i % 3 == 0 && admitted(i);
    want += expect ? 1 : 0;
    ASSERT_EQ(payloads[i].has_value(), expect) << i;
    if (expect) {
      EXPECT_EQ(payloads[i]->find("seed")->as_uint64(), i) << i;
    }
  }
  EXPECT_EQ(filled, want);
  EXPECT_EQ(cache.hits(), want);
  EXPECT_EQ(cache.misses(), plan.jobs.size() / 2 - want - 1);
}

TEST_F(ScenarioTest, WarmYieldRunOverRaggedPacksIsEqualAtOneAndFourThreads) {
  const ScenarioSpec spec = parse_spec_text(kYieldShapeSpec);
  RunOptions cold;
  cold.cache_dir = path("cache");
  cold.threads = 4;
  const RunResult reference = [&] {
    RunOptions fresh = cold;
    fresh.cache_dir = path("reference");
    return ScenarioRunner(fresh).run(spec);
  }();
  ASSERT_EQ(reference.computed, 300u);

  // A resumed cache: an interrupted 3-thread run, finished at 4 threads,
  // leaves packs of several widths that do not line up with the chunks.
  RunOptions partial = cold;
  partial.threads = 3;
  partial.max_jobs = 77;
  ASSERT_EQ(ScenarioRunner(partial).run(spec).computed, 77u);
  ASSERT_EQ(ScenarioRunner(cold).run(spec).computed, 300u - 77u);

  for (const unsigned threads : {1u, 4u}) {
    RunOptions warm = cold;
    warm.threads = threads;
    const RunResult run = ScenarioRunner(warm).run(spec);
    EXPECT_EQ(run.cache_hits, 300u) << "threads=" << threads;
    EXPECT_EQ(run.computed, 0u) << "threads=" << threads;
    EXPECT_EQ(run.cache_evictions, 0u) << "threads=" << threads;
    EXPECT_EQ(run.pool_after.submitted, run.pool_before.submitted) << "threads=" << threads;
    EXPECT_EQ(json::dump(run.report), json::dump(reference.report)) << "threads=" << threads;
  }
}

namespace {

/// report_csv as it was written before the chunked render, kept as the
/// oracle: axis columns, seed, then the first computed payload's metric
/// keys; rows with null metrics skipped.
std::string reference_csv(const json::JsonValue& report) {
  const auto& axes = report.find("axes")->items();
  const auto& rows = report.find("results")->items();
  std::vector<std::string> keys;
  for (const auto& row : rows) {
    const auto* metrics = row.find("metrics");
    if (metrics != nullptr && metrics->is_object()) {
      for (const auto& member : metrics->members()) keys.push_back(member.key);
      break;
    }
  }
  std::string csv;
  for (const auto& axis : axes) csv += axis.as_string() + ",";
  csv += "seed";
  for (const auto& key : keys) csv += "," + key;
  csv += "\n";
  for (const auto& row : rows) {
    const auto* metrics = row.find("metrics");
    if (metrics == nullptr || metrics->is_null()) continue;
    for (const auto& axis : axes) {
      csv += json::format_double(row.find("point")->find(axis.as_string())->as_double()) + ",";
    }
    csv += std::to_string(row.find("seed")->as_uint64());
    for (const auto& key : keys) {
      csv += ",";
      const auto* value = metrics->find(key);
      if (value == nullptr) continue;
      if (value->is_string()) {
        csv += value->as_string();
      } else if (value->is_bool()) {
        csv += value->as_bool() ? "true" : "false";
      } else if (value->is_number()) {
        csv += json::dump_compact(*value);
      }
    }
    csv += "\n";
  }
  return csv;
}

std::string joined(const std::vector<std::string>& parts) {
  std::string out;
  for (const auto& part : parts) out += part;
  return out;
}

/// A dynamic payload's keys, with values that need 15 to 17 digits.
json::JsonValue metric_payload(std::size_t i) {
  const double x = static_cast<double>(i);
  auto payload = json::JsonValue::object();
  payload.set("tone_hz", 9.98046875e6 + x / 3.0);
  payload.set("snr_db", 67.0 + x / 7.0e3);
  payload.set("sndr_db", 62.0 + x / 1.1e3);
  payload.set("sfdr_db", 80.0 - x / 9.0e2);
  payload.set("thd_db", -78.5 - x / 1.3e3);
  payload.set("enob", 10.0 + x / 3.3e3);
  return payload;
}

/// Every job's metric payload, except where `missing(i)` holds.
std::vector<std::optional<json::JsonValue>> metric_payloads(
    const ScenarioPlan& plan, const std::function<bool(std::size_t)>& missing = nullptr) {
  std::vector<std::optional<json::JsonValue>> payloads(plan.jobs.size());
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    if (!missing || !missing(i)) payloads[i] = metric_payload(i);
  }
  return payloads;
}

/// 120 jobs on two axes: two chunks, the second ragged.
const char* kTwoAxisSweepSpec = R"({
  "name": "two_axis",
  "stimulus": {"type": "tone", "record_length": 512},
  "measurement": {"type": "dynamic"},
  "die": {"fidelity": "fast"},
  "seeds": {"first": 11, "count": 5},
  "sweep": [{"key": "die.conversion_rate_hz",
             "values": [20e6, 33e6, 47.5e6, 60e6, 90e6, 110e6, 140e6, 177.5e6]},
            {"key": "stimulus.frequency_hz", "values": [1e6, 10.1e6, 21.3e6]}]
})";

/// The render of `report` at 1, 2 and 4 threads, and at thread count 0
/// under an override of 1 and of 3, must join to json::dump and to the
/// oracle CSV, and report_csv must equal the oracle.
void expect_render_matches_dump(const json::JsonValue& report, const std::string& what) {
  const std::string want_json = json::dump(report);
  const std::string want_csv = reference_csv(report);
  EXPECT_EQ(report_csv(report), want_csv) << what;
  const std::size_t rows = report.find("results")->items().size();
  const std::size_t chunks = (rows + kPlanChunk - 1) / kPlanChunk;
  const auto check = [&](const ReportText& text, const std::string& how) {
    EXPECT_EQ(text.json.size(), chunks + 2) << what << how;
    EXPECT_EQ(text.csv.size(), chunks + 1) << what << how;
    EXPECT_EQ(joined(text.json), want_json) << what << how;
    EXPECT_EQ(joined(text.csv), want_csv) << what << how;
  };
  for (const unsigned threads : {1u, 2u, 4u}) {
    check(render_report(report, threads), " threads=" + std::to_string(threads));
  }
  for (const unsigned threads : {1u, 3u}) {
    const adc::runtime::ScopedThreadOverride pin(threads);
    check(render_report(report, 0), " override=" + std::to_string(threads));
  }
}

}  // namespace

TEST(ReportRender, YieldReportOfManyChunksWithSummaryMatchesDump) {
  const ScenarioSpec spec = parse_spec_text(kYield2kSpec);
  const ScenarioPlan plan = plan_scenario(spec, 4);
  const auto report = build_report(spec, plan, metric_payloads(plan));
  ASSERT_EQ(report.find("results")->items().size(), 2000u);  // 31 chunks and a ragged one
  ASSERT_NE(report.find("summary"), nullptr);
  expect_render_matches_dump(report, "yield2k");
}

TEST(ReportRender, SweepWithAxisColumnsMatchesDump) {
  const ScenarioSpec spec = parse_spec_text(kTwoAxisSweepSpec);
  const ScenarioPlan plan = plan_scenario(spec);
  ASSERT_EQ(plan.jobs.size(), 120u);
  const auto report = build_report(spec, plan, metric_payloads(plan));
  EXPECT_EQ(report_csv(report).substr(0, 47), "die.conversion_rate_hz,stimulus.frequency_hz,se");
  expect_render_matches_dump(report, "two_axis");
}

TEST(ReportRender, PartialReportSkipsNullRowsAndHasNoSummary) {
  const ScenarioSpec yield = parse_spec_text(kYield2kSpec);
  const ScenarioPlan yield_plan = plan_scenario(yield, 4);
  // The first rows are null, so the columns come from a later payload, and
  // whole chunks (64..191) are null too.
  const auto report =
      build_report(yield, yield_plan, metric_payloads(yield_plan, [](std::size_t i) {
        return i < 3 || (i >= 64 && i < 192) || i % 7 == 0;
      }));
  EXPECT_EQ(report.find("summary"), nullptr);
  expect_render_matches_dump(report, "partial yield2k");

  const ScenarioSpec sweep = parse_spec_text(kTwoAxisSweepSpec);
  const ScenarioPlan sweep_plan = plan_scenario(sweep);
  expect_render_matches_dump(
      build_report(sweep, sweep_plan,
                   metric_payloads(sweep_plan, [](std::size_t i) { return i >= 40; })),
      "partial two_axis");
  // Nothing computed: a header of axes and seed alone.
  const auto none = build_report(sweep, sweep_plan,
                                 metric_payloads(sweep_plan, [](std::size_t) { return true; }));
  EXPECT_EQ(report_csv(none), "die.conversion_rate_hz,stimulus.frequency_hz,seed\n");
  expect_render_matches_dump(none, "uncomputed two_axis");
}

TEST(ReportRender, OneRowAndEmptyReportsMatchDump) {
  ScenarioSpec spec = parse_spec_text(kYield2kSpec);
  spec.seed_count = 1;
  const ScenarioPlan one = plan_scenario(spec);
  ASSERT_EQ(one.jobs.size(), 1u);
  const auto report = build_report(spec, one, metric_payloads(one));
  ASSERT_NE(report.find("summary"), nullptr);
  expect_render_matches_dump(report, "one row");

  // No jobs at all: "results": [] between its neighbours, no summary.
  ScenarioPlan empty;
  empty.spec_hash = one.spec_hash;
  const auto bare = build_report(spec, empty, {});
  ASSERT_NE(json::dump(bare).find("\"results\": []"), std::string::npos);
  expect_render_matches_dump(bare, "empty");
}

TEST(ReportRender, DescriptionNeedingEscapesMatchesDump) {
  ScenarioSpec spec = parse_spec_text(kTwoAxisSweepSpec);
  spec.description = "a \"quoted\" C:\\path,\x01 bell\x07 tab\t newline\n é ✓ 𝄞 end";
  const ScenarioPlan plan = plan_scenario(spec);
  const auto report = build_report(spec, plan, metric_payloads(plan));
  EXPECT_NE(json::dump(report).find(
                R"("a \"quoted\" C:\\path,\u0001 bell\u0007 tab\t newline\n é ✓ 𝄞 end")"),
            std::string::npos);
  expect_render_matches_dump(report, "escaped description");
}

TEST(ReportRender, MovedPayloadReportEqualsCopiedReport) {
  const ScenarioSpec spec = parse_spec_text(kYield2kSpec);
  const ScenarioPlan plan = plan_scenario(spec, 4);
  for (const bool partial : {false, true}) {
    const auto payloads =
        metric_payloads(plan, [&](std::size_t i) { return partial && i % 5 == 1; });
    const auto copied = build_report(spec, plan, payloads);
    auto owned = payloads;
    const auto moved = build_report(spec, plan, std::move(owned));
    EXPECT_TRUE(moved.equals(copied)) << "partial=" << partial;
    EXPECT_EQ(json::dump(moved), json::dump(copied)) << "partial=" << partial;
  }
}

TEST(ReportRender, OneChunkReportRendersOnTheCaller) {
  const ScenarioSpec spec = parse_spec_text(kFastRateSweepSpec);
  const ScenarioPlan plan = plan_scenario(spec);
  ASSERT_LE(plan.jobs.size(), kPlanChunk);
  const auto report = build_report(spec, plan, metric_payloads(plan));
  auto& pool = adc::runtime::global_pool();
  const auto before = pool.counters();
  const ReportText text = render_report(report, pool.thread_count());
  EXPECT_EQ(pool.counters().submitted, before.submitted);
  EXPECT_EQ(joined(text.json), json::dump(report));

  // Past one chunk the rows do reach the pool (when it has workers).
  if (pool.thread_count() > 1) {
    const ScenarioSpec wide = parse_spec_text(kYield2kSpec);
    const ScenarioPlan big = plan_scenario(wide);
    const auto big_report = build_report(wide, big, metric_payloads(big));
    const auto start = pool.counters();
    (void)render_report(big_report, pool.thread_count());
    EXPECT_EQ(pool.counters().submitted - start.submitted,
              (big.jobs.size() + kPlanChunk - 1) / kPlanChunk);
  }
}

TEST(ReportRender, RowLackingAnAxisFailsWithTheSerialError) {
  const ScenarioSpec spec = parse_spec_text(kTwoAxisSweepSpec);
  const ScenarioPlan plan = plan_scenario(spec);
  auto report = build_report(spec, plan, metric_payloads(plan));
  EXPECT_THROW((void)render_report(json::JsonValue::object(), 4), ConfigError);
  // A row of the second chunk loses its point.
  json::JsonValue broken = json::JsonValue::object();
  for (const auto& member : report.members()) {
    if (member.key != "results") {
      broken.set(member.key, member.value);
      continue;
    }
    auto rows = json::JsonValue::array();
    for (std::size_t i = 0; i < member.value.items().size(); ++i) {
      auto row = member.value.items()[i];
      if (i == 100) row.erase("point");
      rows.push_back(std::move(row));
    }
    broken.set("results", std::move(rows));
  }
  for (const unsigned threads : {1u, 4u}) {
    try {
      (void)render_report(broken, threads);
      ADD_FAILURE() << "render_report accepted a row without its point, threads=" << threads;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("row lacks axis value"), std::string::npos) << e.what();
    }
  }
}

TEST_F(ScenarioTest, ReportFilesAreEqualAtAnyThreadCount) {
  const ScenarioSpec spec = parse_spec_text(kYield2kSpec);
  const ScenarioPlan plan = plan_scenario(spec, 4);
  const auto report = build_report(spec, plan, metric_payloads(plan, [](std::size_t i) {
    return i % 11 == 3;
  }));
  for (const unsigned threads : {1u, 4u}) {
    const std::string dir = path("reports" + std::to_string(threads));
    const ReportPaths paths = write_report_files(report, spec.name, dir, threads);
    EXPECT_EQ(adc::common::files::read_file(paths.json_path),
              std::optional<std::string>(json::dump(report)));
    EXPECT_EQ(adc::common::files::read_file(paths.csv_path),
              std::optional<std::string>(reference_csv(report)));
    EXPECT_EQ(names_under(dir), (std::vector<std::string>{"yield2k_report.csv",
                                                          "yield2k_report.json"}));
  }
}
