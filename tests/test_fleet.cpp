/// Tests for the fleet engine (src/fleet/): deterministic hash-range
/// sharding, crash-resume with a SIGKILLed worker, merge byte-identity
/// across worker counts, exactly-once computation under concurrent workers,
/// the zero-pool-jobs warm-run guarantee, concurrent merges of one fleet,
/// the steal of a stale unit claim (one claim file behind many job names),
/// and merge and status probes over a resumed cache of ragged packs.
///
/// NOTE: CrashResume MUST be the first test in this binary. It forks a real
/// worker process, and fork() is only safe before this process has spawned
/// any threads (the global pool is created lazily by the first execute
/// phase, the heartbeat thread by the first ClaimHolder). gtest runs tests
/// in declaration order within a file, so keep it at the top.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "fleet/manifest.hpp"
#include "fleet/merge.hpp"
#include "fleet/plan.hpp"
#include "fleet/worker.hpp"
#include "runtime/parallel.hpp"
#include "scenario/cache.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace fs = std::filesystem;
namespace json = adc::common::json;
using namespace adc::fleet;
using adc::scenario::ClaimOutcome;
using adc::scenario::parse_spec_text;
using adc::scenario::ResultCache;
using adc::scenario::RunOptions;
using adc::scenario::ScenarioRunner;

namespace {

/// A fast-profile yield study small enough for CI but wide enough that a
/// forked worker is reliably mid-run when the parent kills it.
const char* kFleetYieldSpec = R"({
  "name": "yield_fleet",
  "stimulus": {
    "type": "tone",
    "frequency_hz": 10e6,
    "amplitude_fraction": 0.985,
    "record_length": 2048
  },
  "measurement": {"type": "yield", "metric": "sndr_db", "limit": 63.0},
  "die": {"fidelity": "fast"},
  "seeds": {"first": 42, "count": 48}
})";

/// Per-test scratch directory (caches, reports, manifests).
class FleetTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("adc_fleet_" + std::to_string(::getpid()) + "_" + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& leaf) const {
    return (dir_ / leaf).string();
  }

  fs::path dir_;
};

/// The single-process reference report for a spec, computed in its own
/// cache directory.
json::JsonValue reference_report(const adc::scenario::ScenarioSpec& spec,
                                 const std::string& cache_dir) {
  RunOptions options;
  options.cache_dir = cache_dir;
  return ScenarioRunner(options).run(spec).report;
}

}  // namespace

TEST_F(FleetTest, CrashResumeWithKilledWorkerStaysByteIdentical) {
  const auto spec = parse_spec_text(kFleetYieldSpec);
  const std::string cache_dir = path("cache");

  // Fork the victim FIRST — this process has no threads yet. The child runs
  // shard 0 of 2 with one compute thread (slow on purpose) and is SIGKILLed
  // as soon as its first payloads hit the shared cache, leaving behind a
  // partially filled shard and possibly live claim sidecars.
  const pid_t victim = ::fork();
  ASSERT_GE(victim, 0);
  if (victim == 0) {
    WorkerOptions options;
    options.cache_dir = cache_dir;
    options.shards = 2;
    options.shard = 0;
    options.owner = "victim";
    options.threads = 1;
    options.lease_ms = 1000;
    options.poll_ms = 10;
    try {
      (void)run_worker(spec, options);
    } catch (...) {
    }
    ::_exit(0);
  }

  // Wait (max ~30s) for evidence of progress, then kill mid-run.
  ResultCache probe(cache_dir);
  const auto plan = adc::scenario::plan_scenario(spec);
  bool saw_progress = false;
  for (int i = 0; i < 3000 && !saw_progress; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    for (const auto& hash : plan.hashes) {
      if (fs::exists(fs::path(probe.root()) / hash.substr(0, 2) / (hash + ".json"))) {
        saw_progress = true;
        break;
      }
    }
  }
  ASSERT_TRUE(saw_progress) << "victim worker never stored a payload";
  ASSERT_EQ(::kill(victim, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(victim, &status, 0), victim);
  ASSERT_TRUE(WIFSIGNALED(status));

  // Resume: the surviving worker owns shard 1 but scavenges shard 0's
  // leftovers, stealing the victim's stale claims once the 1s lease lapses.
  WorkerOptions survivor;
  survivor.cache_dir = cache_dir;
  survivor.shards = 2;
  survivor.shard = 1;
  survivor.owner = "survivor";
  survivor.lease_ms = 1000;
  survivor.poll_ms = 20;
  const auto result = run_worker(spec, survivor);
  EXPECT_TRUE(result.manifest.complete);
  EXPECT_GT(result.manifest.computed, 0u);

  // The merged report matches the single-process reference byte for byte
  // (shard 0's manifest died with the victim, so merge on the cache alone).
  MergeOptions merge;
  merge.cache_dir = cache_dir;
  merge.report_dir = path("reports");
  merge.shards = 2;
  merge.require_manifests = false;
  const auto merged = merge_fleet(spec, merge);
  const auto reference = reference_report(spec, path("cache-ref"));
  EXPECT_EQ(json::dump(merged.report), json::dump(reference));

  // A re-issued worker for the dead shard finds everything warm: zero
  // computation, zero pool jobs, full manifest for a clean merge.
  WorkerOptions reissue;
  reissue.cache_dir = cache_dir;
  reissue.shards = 2;
  reissue.shard = 0;
  reissue.owner = "reissue";
  const auto rerun = run_worker(spec, reissue);
  EXPECT_TRUE(rerun.manifest.complete);
  EXPECT_EQ(rerun.manifest.computed, 0u);
  EXPECT_EQ(rerun.manifest.cache_hits, rerun.manifest.jobs_total);
  EXPECT_EQ(rerun.pool_after.submitted, rerun.pool_before.submitted);

  MergeOptions full;
  full.cache_dir = cache_dir;
  full.shards = 2;
  const auto remerged = merge_fleet(spec, full);
  EXPECT_EQ(json::dump(remerged.report), json::dump(reference));
}

TEST(FleetPlanTest, ShardPartitionIsDeterministicAndComplete) {
  const auto spec = parse_spec_text(kFleetYieldSpec);
  for (const unsigned shards : {1u, 2u, 3u, 4u}) {
    const auto a = plan_fleet(spec, shards);
    const auto b = plan_fleet(spec, shards);
    ASSERT_EQ(a.shard_of.size(), a.scenario.jobs.size());
    EXPECT_EQ(a.shard_of, b.shard_of) << "partition not deterministic at W=" << shards;
    std::size_t total = 0;
    for (const auto size : a.shard_sizes) total += size;
    EXPECT_EQ(total, a.scenario.jobs.size());
    for (std::size_t i = 0; i < a.shard_of.size(); ++i) {
      EXPECT_LT(a.shard_of[i], shards);
      EXPECT_EQ(a.shard_of[i], shard_of_hash(a.scenario.hashes[i], shards));
    }
  }
  // W=1 assigns everything to shard 0.
  const auto single = plan_fleet(spec, 1);
  for (const auto shard : single.shard_of) EXPECT_EQ(shard, 0u);

  // The range partition is a pure function of the hash value.
  EXPECT_EQ(shard_of_hash("0000000000000000", 4), 0u);
  EXPECT_EQ(shard_of_hash("ffffffffffffffff", 4), 3u);
  EXPECT_EQ(hash_value("00000000000000ff"), 255u);
  EXPECT_THROW((void)hash_value("not-a-hash"), adc::common::ConfigError);
}

TEST_F(FleetTest, MergedReportIsByteIdenticalForAnyWorkerCount) {
  const auto spec = parse_spec_text(kFleetYieldSpec);
  const auto reference = reference_report(spec, path("cache-ref"));
  RunOptions ref_files;
  ref_files.cache_dir = path("cache-ref");
  ref_files.report_dir = path("reports-ref");
  (void)ScenarioRunner(ref_files).run(spec);

  for (const unsigned workers : {1u, 2u, 4u}) {
    const std::string tag = std::to_string(workers);
    for (unsigned k = 0; k < workers; ++k) {
      WorkerOptions options;
      options.cache_dir = path("cache-w" + tag);
      options.shards = workers;
      options.shard = k;
      // Appended piecewise: GCC 12 reports a -Wrestrict false positive on
      // both "w" + std::to_string(k) and an assignment of the literal.
      options.owner += "w";
      options.owner += std::to_string(k);
      const auto result = run_worker(spec, options);
      EXPECT_TRUE(result.manifest.complete);
    }
    MergeOptions merge;
    merge.cache_dir = path("cache-w" + tag);
    merge.report_dir = path("reports-w" + tag);
    merge.shards = workers;
    const auto merged = merge_fleet(spec, merge);
    ASSERT_EQ(merged.manifests.size(), workers);
    EXPECT_EQ(json::dump(merged.report), json::dump(reference))
        << "merged report drifted at W=" << workers;

    // File-level byte identity, the same check the CI lane runs with cmp.
    for (const char* leaf : {"yield_fleet_report.json", "yield_fleet_report.csv"}) {
      std::ifstream ref_in(path("reports-ref") + "/" + leaf, std::ios::binary);
      std::ifstream fleet_in(path("reports-w" + tag) + "/" + leaf, std::ios::binary);
      const std::string ref_bytes((std::istreambuf_iterator<char>(ref_in)),
                                  std::istreambuf_iterator<char>());
      const std::string fleet_bytes((std::istreambuf_iterator<char>(fleet_in)),
                                    std::istreambuf_iterator<char>());
      ASSERT_FALSE(ref_bytes.empty());
      EXPECT_EQ(fleet_bytes, ref_bytes) << leaf << " differs at W=" << workers;
    }
  }
}

TEST_F(FleetTest, ConcurrentWorkersComputeEachJobExactlyOnce) {
  const auto spec = parse_spec_text(kFleetYieldSpec);
  const std::string cache_dir = path("cache");

  WorkerResult results[2];
  std::vector<std::thread> workers;
  for (unsigned k = 0; k < 2; ++k) {
    workers.emplace_back([&, k] {
      WorkerOptions options;
      options.cache_dir = cache_dir;
      options.shards = 2;
      options.shard = k;
      // Appended piecewise: GCC 12 reports a -Wrestrict false positive on
      // both "w" + std::to_string(k) and an assignment of the literal.
      options.owner += "w";
      options.owner += std::to_string(k);
      options.lease_ms = 60000;  // no steals: strict exactly-once
      options.poll_ms = 10;
      results[k] = run_worker(spec, options);
    });
  }
  for (auto& t : workers) t.join();

  EXPECT_TRUE(results[0].manifest.complete);
  EXPECT_TRUE(results[1].manifest.complete);
  // The claim protocol's double-check-under-claim makes computation
  // exactly-once whenever no claim is stolen: the two workers partition the
  // grid exactly.
  EXPECT_EQ(results[0].manifest.computed + results[1].manifest.computed,
            results[0].manifest.jobs_total);

  const auto merged = [&] {
    MergeOptions merge;
    merge.cache_dir = cache_dir;
    merge.shards = 2;
    return merge_fleet(spec, merge);
  }();
  EXPECT_EQ(json::dump(merged.report),
            json::dump(reference_report(spec, path("cache-ref"))));
}

TEST_F(FleetTest, WarmFleetRunSubmitsZeroPoolJobsPerWorker) {
  const auto spec = parse_spec_text(kFleetYieldSpec);
  const std::string cache_dir = path("cache");

  // Cold fill; on a multi-core host this engages the pool, which is what
  // makes the warm zero-delta below a real assertion rather than 0 == 0.
  // (On a 1-core host parallel_map takes its serial path and the global
  // pool is never touched, so the cold check would be vacuous anyway.)
  WorkerOptions cold;
  cold.cache_dir = cache_dir;
  cold.shards = 1;
  cold.shard = 0;
  const auto cold_result = run_worker(spec, cold);
  ASSERT_TRUE(cold_result.manifest.complete);
  if (adc::runtime::effective_thread_count(0) > 1) {
    EXPECT_GT(cold_result.pool_after.submitted, cold_result.pool_before.submitted);
  }

  // Fully warm W=4 fleet: every worker serves its whole view from cache and
  // submits zero pool jobs — the fleet acceptance pin.
  for (unsigned k = 0; k < 4; ++k) {
    WorkerOptions warm;
    warm.cache_dir = cache_dir;
    warm.shards = 4;
    warm.shard = k;
    const auto result = run_worker(spec, warm);
    EXPECT_TRUE(result.manifest.complete);
    EXPECT_EQ(result.manifest.computed, 0u);
    EXPECT_EQ(result.manifest.cache_hits, result.manifest.jobs_total);
    EXPECT_EQ(result.pool_after.submitted, result.pool_before.submitted)
        << "warm worker " << k << " submitted pool jobs";
    EXPECT_EQ(result.manifest.pool_jobs, 0u);
  }
}

TEST_F(FleetTest, BudgetStopWritesIncompleteManifestAndResumes) {
  const auto spec = parse_spec_text(kFleetYieldSpec);
  WorkerOptions budget;
  budget.cache_dir = path("cache");
  budget.shards = 1;
  budget.shard = 0;
  budget.max_jobs = 8;
  const auto partial = run_worker(spec, budget);
  EXPECT_FALSE(partial.manifest.complete);
  EXPECT_EQ(partial.manifest.computed, 8u);
  EXPECT_EQ(partial.manifest.skipped, partial.manifest.jobs_total - 8u);

  // An incomplete fleet refuses to merge, naming the gap.
  MergeOptions merge;
  merge.cache_dir = path("cache");
  merge.shards = 1;
  EXPECT_THROW((void)merge_fleet(spec, merge), adc::common::MeasurementError);

  // An unbudgeted re-run resumes over the 8 cached payloads and completes.
  WorkerOptions resume = budget;
  resume.max_jobs = 0;
  const auto finished = run_worker(spec, resume);
  EXPECT_TRUE(finished.manifest.complete);
  EXPECT_EQ(finished.manifest.cache_hits, 8u);
  EXPECT_EQ(finished.manifest.computed, finished.manifest.jobs_total - 8u);
  EXPECT_EQ(json::dump(merge_fleet(spec, merge).report),
            json::dump(reference_report(spec, path("cache-ref"))));
}

TEST_F(FleetTest, ConcurrentMergesOfOneFleetAllSucceed) {
  // Two `adc_fleet run`s, or a run and a merge, can merge one spec on one
  // root at once. Each merge writes <scenario>_fleet.json through its own
  // temporary, so none truncates or renames away another's.
  const auto spec = parse_spec_text(kFleetYieldSpec);
  WorkerOptions worker;
  worker.cache_dir = path("cache");
  worker.shards = 1;
  worker.shard = 0;
  ASSERT_TRUE(run_worker(spec, worker).manifest.complete);
  MergeOptions merge;
  merge.cache_dir = path("cache");
  merge.shards = 1;
  const std::string manifest_path = merge_fleet(spec, merge).fleet_manifest_path;
  const auto read = [&manifest_path] {
    std::ifstream in(manifest_path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const std::string want = read();

  constexpr int kMergers = 8;
  constexpr int kRounds = 40;
  std::atomic<int> failures{0};
  std::vector<std::thread> mergers;
  mergers.reserve(kMergers);
  for (int t = 0; t < kMergers; ++t) {
    mergers.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        try {
          (void)merge_fleet(spec, merge);
        } catch (const std::exception& e) {
          ADD_FAILURE() << e.what();
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : mergers) t.join();
  EXPECT_EQ(failures.load(), 0);
  const std::string got = read();
  EXPECT_EQ(got, want);
  EXPECT_EQ(json::parse(got).find("scenario")->as_string(), spec.name);
  // Only the shard manifest and the fleet manifest remain: no temporaries.
  const auto entries = std::distance(fs::directory_iterator(fs::path(manifest_path).parent_path()),
                                     fs::directory_iterator{});
  EXPECT_EQ(entries, 2);
}

TEST_F(FleetTest, ManifestRoundTripsAndRejectsMismatch) {
  ShardManifest m;
  m.scenario = "demo";
  m.spec_hash = "0123456789abcdef";
  m.fingerprint = "fedcba9876543210";
  m.shard = 1;
  m.shards = 3;
  m.owner = "host:123";
  m.jobs_total = 48;
  m.shard_jobs = 17;
  m.cache_hits = 5;
  m.computed = 12;
  m.scavenged = 2;
  m.elsewhere = 31;
  m.skipped = 0;
  m.pool_jobs = 7;
  m.complete = true;

  const auto doc = manifest_document(m);
  const auto back = parse_manifest(json::parse(json::dump(doc)));
  EXPECT_EQ(json::dump(manifest_document(back)), json::dump(doc));

  const std::string dir = (fs::temp_directory_path() /
                           ("adc_fleet_manifest_" + std::to_string(::getpid())))
                              .string();
  fs::remove_all(dir);
  const std::string written = write_manifest(m, dir);
  EXPECT_EQ(written, dir + "/" + manifest_filename("demo", 1, 3));
  const auto loaded = load_manifest(dir, "demo", 1, 3);
  EXPECT_EQ(json::dump(manifest_document(loaded)), json::dump(doc));
  // Wrong coordinates are a hard error, not a silent mismatch.
  EXPECT_THROW((void)load_manifest(dir, "demo", 2, 3), adc::common::ConfigError);
  fs::remove_all(dir);

  auto corrupt = json::parse(json::dump(doc));
  corrupt.set("shards", std::uint64_t{0});
  EXPECT_THROW((void)parse_manifest(corrupt), adc::common::ConfigError);
}

TEST_F(FleetTest, WorkerStealsEveryNameOfAStaleUnitClaim) {
  const auto spec = parse_spec_text(kFleetYieldSpec);
  const auto plan = adc::scenario::plan_scenario(spec);
  const std::string cache_dir = path("cache");

  // A crashed worker's unit claim: one claim file behind 32 job names, its
  // heartbeat far older than any lease.
  ResultCache cache(cache_dir);
  cache.ensure_writable();
  const std::vector<std::string> unit(plan.hashes.begin(), plan.hashes.begin() + 32);
  const auto plant = [&] {
    for (const auto outcome : cache.try_claim(unit, "crashed", 1000, 60000)) {
      ASSERT_EQ(outcome, ClaimOutcome::kAcquired);
    }
    struct stat st {};
    const fs::path name = fs::path(cache.root()) / unit[0].substr(0, 2) / (unit[0] + ".claim");
    ASSERT_EQ(::stat(name.c_str(), &st), 0);
    ASSERT_EQ(st.st_nlink, unit.size());
  };
  plant();

  // A live worker steals every name, computes the whole grid and releases
  // its claims; the merged report is the single-process report.
  WorkerOptions options;
  options.cache_dir = cache_dir;
  options.shards = 1;
  options.shard = 0;
  options.owner = "survivor";
  options.lease_ms = 60000;
  options.poll_ms = 10;
  const auto result = run_worker(spec, options);
  EXPECT_TRUE(result.manifest.complete);
  EXPECT_EQ(result.manifest.computed, plan.jobs.size());
  EXPECT_EQ(cache.stats().claim_files, 0u);
  MergeOptions merge;
  merge.cache_dir = cache_dir;
  merge.shards = 1;
  EXPECT_EQ(json::dump(merge_fleet(spec, merge).report),
            json::dump(reference_report(spec, path("cache-ref"))));

  // The stale sweep removes every name of a stale unit claim.
  plant();
  EXPECT_EQ(cache.clear_stale(wall_clock_ms(), 60000).claims_removed, unit.size());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.claim_files, 0u);
  EXPECT_EQ(stats.tmp_files, 0u);
}

TEST_F(FleetTest, MergeAndStatusOverARaggedPackCacheMatchOneNameLoads) {
  // Five probe chunks of a fast yield, resumed across runs of different
  // widths, so the packs on disk straddle the chunks.
  const auto spec = parse_spec_text(R"({
    "name": "yield_ragged",
    "stimulus": {"type": "tone", "frequency_hz": 10e6, "amplitude_fraction": 0.985,
                 "record_length": 512},
    "measurement": {"type": "yield", "metric": "sndr_db", "limit": 60.0},
    "die": {"fidelity": "fast"},
    "seeds": {"first": 7, "count": 300}
  })");
  const auto plan = adc::scenario::plan_scenario(spec, 1);
  const std::string cache_dir = path("cache");
  const auto cached_one_by_one = [&] {
    ResultCache cache(cache_dir);
    std::size_t cached = 0;
    for (const auto& hash : plan.hashes) cached += cache.load(hash).has_value() ? 1 : 0;
    return cached;
  };

  WorkerOptions budget;
  budget.cache_dir = cache_dir;
  budget.threads = 3;
  budget.max_jobs = 101;
  ASSERT_EQ(run_worker(spec, budget).manifest.computed, 101u);
  const FleetStatus partial = fleet_status(spec, cache_dir);
  EXPECT_EQ(partial.jobs_total, 300u);
  EXPECT_EQ(partial.cached, 101u);
  EXPECT_EQ(partial.cached, cached_one_by_one());
  MergeOptions merge;
  merge.cache_dir = cache_dir;
  merge.shards = 1;
  EXPECT_THROW((void)merge_fleet(spec, merge), adc::common::MeasurementError);

  RunOptions rest;
  rest.cache_dir = cache_dir;
  rest.threads = 4;
  ASSERT_EQ(ScenarioRunner(rest).run(spec).computed, 300u - 101u);
  const FleetStatus full = fleet_status(spec, cache_dir);
  EXPECT_EQ(full.cached, 300u);
  EXPECT_TRUE(full.claims.empty());
  EXPECT_EQ(json::dump(merge_fleet(spec, merge).report),
            json::dump(reference_report(spec, path("cache-ref"))));
  EXPECT_EQ(cached_one_by_one(), 300u);
}
