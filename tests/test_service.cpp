/// Tests for the scenario service (src/service/): wire-protocol parsing,
/// socket line framing, streamed-report/batch-report byte identity, the
/// shared warm tier (zero pool submissions on a warm run), claim-based
/// dedup across concurrent tenants and across processes (a claim planted by
/// another owner), cancellation via message and via disconnect (with
/// bit-identical resume from the surviving cache entries), admission
/// control, and error paths — none of which may leave claim or temporary
/// files behind.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/json.hpp"
#include "runtime/heartbeat.hpp"
#include "runtime/parallel.hpp"
#include "scenario/cache.hpp"
#include "scenario/claims.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/socket.hpp"

namespace fs = std::filesystem;
namespace json = adc::common::json;
using adc::common::ConfigError;
using namespace adc::service;

namespace {

/// A fast 4-job dynamic sweep (2 rates x 2 seeds, 256-sample records).
const char* kSmallSpec = R"({
  "name": "small",
  "stimulus": {"type": "tone", "frequency_hz": 10e6, "record_length": 256},
  "measurement": {"type": "dynamic"},
  "seeds": {"first": 42, "count": 2},
  "sweep": [{"key": "die.conversion_rate_hz", "values": [60e6, 110e6]}]
})";

/// A dearer 4-job sweep (4096-sample records) for races that need the first
/// request still active when the second arrives.
const char* kSlowSpec = R"({
  "name": "slower",
  "stimulus": {"type": "tone", "frequency_hz": 10e6, "record_length": 4096},
  "measurement": {"type": "dynamic"},
  "seeds": {"first": 7, "count": 2},
  "sweep": [{"key": "die.conversion_rate_hz", "values": [60e6, 110e6]}]
})";

json::JsonValue run_request(const char* spec_text, const std::string& id,
                            std::uint64_t max_jobs = 0) {
  auto request = json::JsonValue::object();
  request.set("type", "run");
  request.set("id", id);
  request.set("spec", json::parse(spec_text));
  if (max_jobs != 0) {
    auto options = json::JsonValue::object();
    options.set("max_jobs", max_jobs);
    request.set("options", std::move(options));
  }
  return request;
}

/// The batch CLI's report for `spec_text` computed in-process with its own
/// cold cache — the byte-identity reference for streamed summaries.
json::JsonValue batch_report(const char* spec_text, const std::string& cache_dir) {
  adc::scenario::RunOptions options;
  options.cache_dir = cache_dir;
  adc::scenario::ScenarioRunner runner(options);
  return runner.run(adc::scenario::parse_spec_text(spec_text)).report;
}

/// One protocol conversation: connects, swallows the hello, then reads
/// events on demand. Every read carries a generous deadline so a wedged
/// server fails the test instead of hanging it.
class TestClient {
 public:
  explicit TestClient(const std::string& socket_path)
      : stream_(UnixStream::connect(socket_path)) {
    const auto hello = next_event();
    EXPECT_EQ(event_type(hello), "hello");
    EXPECT_EQ(hello.find("protocol")->as_uint64(), kProtocolVersion);
  }

  void send(const json::JsonValue& request) {
    ASSERT_TRUE(stream_.write_line(json::dump_compact(request)));
  }

  /// Next event line as a document; a closed/wedged stream returns null.
  json::JsonValue next_event(int timeout_ms = 60000) {
    std::string line;
    const auto status = stream_.read_line(line, timeout_ms);
    if (status != UnixStream::ReadStatus::kLine) return json::JsonValue();
    return json::parse(line);
  }

  /// Read until an event of `wanted` type arrives, collecting every `cell`
  /// event passed on the way into `cells`.
  json::JsonValue await(const std::string& wanted,
                        std::vector<json::JsonValue>* cells = nullptr) {
    for (;;) {
      auto event = next_event();
      if (event.is_null()) {
        ADD_FAILURE() << "connection closed while waiting for \"" << wanted << "\"";
        return event;
      }
      const std::string type = event_type(event);
      if (cells != nullptr && type == "cell") cells->push_back(event);
      if (type == wanted) return event;
      if (type == "error" && wanted != "error") {
        ADD_FAILURE() << "server error while waiting for \"" << wanted
                      << "\": " << json::dump_compact(event);
        return event;
      }
    }
  }

  void close() { stream_.close(); }

 private:
  UnixStream stream_;
};

/// Fixture owning a scratch directory, a service instance, and its socket.
class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = fs::temp_directory_path() /
           ("adc_service_" + std::to_string(::getpid()) + "_" + info->name());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    service_.reset();
    fs::remove_all(dir_);
  }

  /// Start a service on a fresh socket + cache under the scratch dir.
  ScenarioService& start_service(std::size_t max_inflight = 4,
                                 std::size_t max_requests = 8) {
    ServiceOptions options;
    options.socket_path = (dir_ / "s.sock").string();
    options.cache_dir = (dir_ / "cache").string();
    options.max_inflight_per_connection = max_inflight;
    options.max_requests_per_connection = max_requests;
    service_ = std::make_unique<ScenarioService>(options);
    service_->start();
    return *service_;
  }

  [[nodiscard]] std::string path(const std::string& leaf) const {
    return (dir_ / leaf).string();
  }

  /// The service's cache root holds no claim and no store temporary.
  void expect_no_litter() const {
    const auto stats = adc::scenario::ResultCache(path("cache")).stats();
    EXPECT_EQ(stats.claim_files, 0u);
    EXPECT_EQ(stats.tmp_files, 0u);
  }

  fs::path dir_;
  std::unique_ptr<ScenarioService> service_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Protocol parsing (no sockets involved)

TEST(ServiceProtocol, ParseRequestValidates) {
  EXPECT_THROW((void)parse_request("not json"), ConfigError);
  EXPECT_THROW((void)parse_request("[1, 2]"), ConfigError);
  EXPECT_THROW((void)parse_request(R"({"id": "x"})"), ConfigError);
  EXPECT_THROW((void)parse_request(R"({"type": "launch"})"), ConfigError);
  EXPECT_THROW((void)parse_request(R"({"type": "run", "id": "x"})"), ConfigError);
  EXPECT_THROW((void)parse_request(R"({"type": "run", "spec": {}})"), ConfigError);
  EXPECT_THROW((void)parse_request(R"({"type": "cancel"})"), ConfigError);
  EXPECT_THROW((void)parse_request(
                   R"({"type": "run", "id": "x", "spec": {}, "options": {"bogus": 1}})"),
               ConfigError);

  const auto run = parse_request(
      R"({"type": "run", "id": "r1", "spec": {"name": "x"}, "options": {"max_jobs": 3}})");
  EXPECT_EQ(run.type, Request::Type::kRun);
  EXPECT_EQ(run.id, "r1");
  EXPECT_EQ(run.max_jobs, 3u);
  EXPECT_TRUE(run.spec.is_object());

  EXPECT_EQ(parse_request(R"({"type": "status"})").type, Request::Type::kStatus);
  EXPECT_EQ(parse_request(R"({"type": "shutdown"})").type, Request::Type::kShutdown);
}

TEST(ServiceProtocol, EventBuildersRoundTrip) {
  const auto cell = cell_event("r1", 3, "abc123", CellOrigin::kDedup,
                               json::parse(R"({"snr_db": 70.5})"));
  const auto parsed = json::parse(encode_event(cell));
  EXPECT_EQ(event_type(parsed), "cell");
  EXPECT_EQ(parsed.find("origin")->as_string(), "dedup");
  EXPECT_EQ(parsed.find("index")->as_uint64(), 3u);
  EXPECT_EQ(parsed.find("metrics")->find("snr_db")->as_double(), 70.5);

  const auto error = error_event("", error_code::kBadRequest, "nope");
  EXPECT_FALSE(error.contains("id"));
  EXPECT_EQ(error.find("code")->as_string(), "bad_request");
}

// ---------------------------------------------------------------------------
// Socket framing

TEST_F(ServiceTest, SocketLineFramingRoundTrips) {
  UnixListener listener(path("frame.sock"));
  std::thread peer([&] {
    auto accepted = listener.accept(10000);
    ASSERT_TRUE(accepted.has_value());
    // Two frames in one write, then a partial line closed without newline.
    ASSERT_TRUE(accepted->write_line("first\nsecond"));
    accepted->close();
  });
  auto client = UnixStream::connect(path("frame.sock"));
  std::string line;
  ASSERT_EQ(client.read_line(line, 10000), UnixStream::ReadStatus::kLine);
  EXPECT_EQ(line, "first");
  ASSERT_EQ(client.read_line(line, 10000), UnixStream::ReadStatus::kLine);
  EXPECT_EQ(line, "second");
  // The trailing unterminated bytes are discarded at EOF.
  EXPECT_EQ(client.read_line(line, 10000), UnixStream::ReadStatus::kClosed);
  peer.join();
}

TEST_F(ServiceTest, SocketPathTooLongIsRejected) {
  const std::string long_path = path(std::string(200, 'x'));
  EXPECT_THROW((void)UnixListener(long_path), ConfigError);
  EXPECT_THROW((void)UnixStream::connect(long_path), ConfigError);
}

TEST_F(ServiceTest, SocketWriteDeadlineBoundsAStalledPeer) {
  UnixListener listener(path("stall.sock"));
  auto client = UnixStream::connect(path("stall.sock"));
  auto accepted = listener.accept(10000);
  ASSERT_TRUE(accepted.has_value());

  // The client never reads: the socket buffers fill, after which every
  // write must fail within its deadline instead of blocking forever.
  const std::string line(64 * 1024, 'x');
  const auto start = std::chrono::steady_clock::now();
  bool failed = false;
  for (int i = 0; i < 100 && !failed; ++i) {
    failed = !accepted->write_line(line, /*timeout_ms=*/250);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(failed) << "writes to a stalled peer kept succeeding";
  EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(), 30);
}

TEST_F(ServiceTest, ListenerRefusesToStealALiveListenersPath) {
  UnixListener first(path("live.sock"));
  try {
    UnixListener second(path("live.sock"));
    FAIL() << "second listener bound a path a live listener is serving";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("already in use"), std::string::npos);
  }
  // The live listener is untouched: a client can still connect.
  std::thread peer([&] {
    auto conn = first.accept(10000);
    EXPECT_TRUE(conn.has_value());
  });
  auto client = UnixStream::connect(path("live.sock"));
  EXPECT_TRUE(client.valid());
  peer.join();
}

TEST_F(ServiceTest, ListenerReclaimsAStaleSocketFile) {
  // Simulate a crashed daemon: a bound socket file whose owner is gone.
  const std::string stale = path("stale.sock");
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, stale.c_str(), stale.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)), 0);
  ::close(fd);  // no unlink: the file stays behind, but nothing answers

  UnixListener listener(stale);  // reclaims the stale file instead of throwing
  std::thread peer([&] {
    auto conn = listener.accept(10000);
    EXPECT_TRUE(conn.has_value());
  });
  auto client = UnixStream::connect(stale);
  EXPECT_TRUE(client.valid());
  peer.join();
}

// ---------------------------------------------------------------------------
// End-to-end service behaviour

TEST_F(ServiceTest, StreamedReportMatchesBatchByteForByte) {
  auto& service = start_service();
  TestClient client(service.socket_path());
  client.send(run_request(kSmallSpec, "r1"));

  const auto accepted = client.await("accepted");
  EXPECT_EQ(accepted.find("jobs")->as_uint64(), 4u);
  std::vector<json::JsonValue> cells;
  const auto summary = client.await("summary", &cells);

  ASSERT_EQ(cells.size(), 4u);
  for (const auto& cell : cells) {
    EXPECT_EQ(cell.find("origin")->as_string(), "miss");  // cold cache
  }
  EXPECT_EQ(summary.find("computed")->as_uint64(), 4u);
  EXPECT_EQ(summary.find("cache_hits")->as_uint64(), 0u);

  const auto reference = batch_report(kSmallSpec, path("batch_cache"));
  EXPECT_EQ(json::dump(*summary.find("report")), json::dump(reference));
  expect_no_litter();
}

TEST_F(ServiceTest, WarmRunServedEntirelyFromCacheWithZeroSubmissions) {
  auto& service = start_service();
  {
    TestClient first(service.socket_path());
    first.send(run_request(kSmallSpec, "cold"));
    (void)first.await("summary");
  }
  const auto before = adc::runtime::global_pool().counters().submitted;

  TestClient second(service.socket_path());
  second.send(run_request(kSmallSpec, "warm"));
  std::vector<json::JsonValue> cells;
  const auto summary = second.await("summary", &cells);

  EXPECT_EQ(summary.find("cache_hits")->as_uint64(), 4u);
  EXPECT_EQ(summary.find("computed")->as_uint64(), 0u);
  ASSERT_EQ(cells.size(), 4u);
  for (const auto& cell : cells) {
    EXPECT_EQ(cell.find("origin")->as_string(), "hit");
  }
  EXPECT_EQ(adc::runtime::global_pool().counters().submitted, before)
      << "a fully cached request must not submit pool jobs";
}

TEST_F(ServiceTest, AcceptedAlwaysPrecedesCellsEvenOnAWarmCache) {
  auto& service = start_service();
  {
    TestClient prime(service.socket_path());
    prime.send(run_request(kSmallSpec, "prime"));
    (void)prime.await("summary");
  }
  // On a fully warm cache the scheduler can produce every cell and the
  // summary the instant the run is published; the per-connection FIFO must
  // still deliver `accepted` first, the cells next, and the summary last.
  for (int round = 0; round < 5; ++round) {
    TestClient client(service.socket_path());
    client.send(run_request(kSmallSpec, "warm" + std::to_string(round)));
    std::vector<std::string> order;
    for (;;) {
      const auto event = client.next_event();
      ASSERT_FALSE(event.is_null()) << "connection closed mid-run";
      order.push_back(event_type(event));
      ASSERT_NE(order.back(), "error") << json::dump_compact(event);
      if (order.back() == "summary") break;
    }
    ASSERT_EQ(order.size(), 6u);
    EXPECT_EQ(order.front(), "accepted");
    for (std::size_t i = 1; i + 1 < order.size(); ++i) EXPECT_EQ(order[i], "cell");
  }
}

TEST_F(ServiceTest, ConcurrentDuplicateRequestsComputeEachCellOnce) {
  auto& service = start_service();
  const auto before = adc::runtime::global_pool().counters().submitted;

  std::atomic<std::uint64_t> computed{0};
  std::atomic<std::uint64_t> shared{0};  // hits + dedups
  std::vector<std::string> reports(2);
  std::vector<std::thread> tenants;
  for (int t = 0; t < 2; ++t) {
    tenants.emplace_back([&, t] {
      TestClient client(service.socket_path());
      client.send(run_request(kSmallSpec, "dup"));
      const auto summary = client.await("summary");
      if (summary.is_null() || event_type(summary) != "summary") return;
      computed += summary.find("computed")->as_uint64();
      shared += summary.find("cache_hits")->as_uint64() +
                summary.find("deduped")->as_uint64();
      reports[t] = json::dump(*summary.find("report"));
    });
  }
  for (auto& tenant : tenants) tenant.join();

  // 4 unique cells, cold cache: each computed exactly once fleet-wide; the
  // other tenant's copies came from the cache or the in-flight computation.
  EXPECT_EQ(computed.load(), 4u);
  EXPECT_EQ(shared.load(), 4u);
  EXPECT_EQ(adc::runtime::global_pool().counters().submitted, before + 4);
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_FALSE(reports[0].empty());
}

TEST_F(ServiceTest, CancelMessageStopsSchedulingAndResumesBitIdentically) {
  auto& service = start_service(/*max_inflight=*/1);
  {
    TestClient client(service.socket_path());
    client.send(run_request(kSlowSpec, "r1"));
    (void)client.await("accepted");
    auto cancel = json::JsonValue::object();
    cancel.set("type", "cancel");
    cancel.set("id", "r1");
    client.send(cancel);
    std::vector<json::JsonValue> cells;
    const auto cancelled = client.await("cancelled", &cells);
    ASSERT_EQ(event_type(cancelled), "cancelled");
    EXPECT_LT(cancelled.find("delivered")->as_uint64(), 4u)
        << "cancel right after accept should stop well short of the sweep";
    // Cells finishing after the cancel are recorded but not streamed; the
    // terminal event must claim exactly the cells the client was sent.
    EXPECT_EQ(cancelled.find("delivered")->as_uint64(), cells.size());
  }

  // Whatever cells finished were stored; an identical request completes and
  // matches the batch report byte for byte.
  TestClient resumed(service.socket_path());
  resumed.send(run_request(kSlowSpec, "r2"));
  const auto summary = resumed.await("summary");
  EXPECT_EQ(summary.find("jobs")->as_uint64(), 4u);
  const auto reference = batch_report(kSlowSpec, path("batch_cache"));
  EXPECT_EQ(json::dump(*summary.find("report")), json::dump(reference));
  expect_no_litter();
}

TEST_F(ServiceTest, DisconnectCancelsInflightWithoutPoisoningTheCache) {
  auto& service = start_service(/*max_inflight=*/1);
  {
    TestClient client(service.socket_path());
    client.send(run_request(kSlowSpec, "doomed"));
    (void)client.await("accepted");
    client.close();  // vanish mid-sweep
  }
  // The disconnect cancels the request once its in-flight cells drain.
  for (int i = 0; i < 600; ++i) {
    if (service.counters().requests_cancelled >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  EXPECT_EQ(service.counters().requests_cancelled, 1u);

  TestClient survivor(service.socket_path());
  survivor.send(run_request(kSlowSpec, "retry"));
  const auto summary = survivor.await("summary");
  const auto reference = batch_report(kSlowSpec, path("batch_cache"));
  EXPECT_EQ(json::dump(*summary.find("report")), json::dump(reference));
  expect_no_litter();
}

TEST_F(ServiceTest, LiveForeignClaimParksItsCellUntilTheOwnerStores) {
  // Another process (an adc_fleet worker, another daemon) holds a live claim
  // on the first job of the spec.
  const auto spec = adc::scenario::parse_spec_text(kSmallSpec);
  const auto plan = adc::scenario::plan_scenario(spec);
  const std::string& hash = plan.hashes[0];
  adc::scenario::ResultCache cache(path("cache"));
  cache.ensure_writable();
  ASSERT_EQ(cache.try_claim(hash, "foreign", adc::runtime::wall_clock_ms(),
                            adc::scenario::kClaimLeaseMs),
            adc::scenario::ClaimOutcome::kAcquired);

  auto& service = start_service();
  TestClient client(service.socket_path());
  client.send(run_request(kSmallSpec, "r1"));
  (void)client.await("accepted");
  // The other three cells are computed here; the claimed one waits.
  std::vector<json::JsonValue> cells;
  for (int i = 0; i < 3; ++i) {
    cells.push_back(client.await("cell"));
    EXPECT_NE(cells.back().find("index")->as_uint64(), 0u);
    EXPECT_EQ(cells.back().find("origin")->as_string(), "miss");
  }

  // The foreign owner finishes its job: store, then release.
  cache.store(hash, adc::scenario::ScenarioRunner::execute_job(
                        adc::scenario::resolve_job(spec, plan.jobs[0])));
  cache.release_claim(hash, "foreign");

  const auto summary = client.await("summary", &cells);
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells.back().find("index")->as_uint64(), 0u);
  EXPECT_EQ(cells.back().find("origin")->as_string(), "dedup");
  EXPECT_EQ(summary.find("computed")->as_uint64(), 3u);
  EXPECT_EQ(summary.find("deduped")->as_uint64(), 1u);
  EXPECT_EQ(summary.find("cache_hits")->as_uint64(), 0u);
  const auto reference = batch_report(kSmallSpec, path("batch_cache"));
  EXPECT_EQ(json::dump(*summary.find("report")), json::dump(reference));
  expect_no_litter();
}

TEST_F(ServiceTest, StaleForeignClaimIsStolenAndComputed) {
  // A crashed owner's claim: its heartbeat is far older than the lease.
  const auto plan = adc::scenario::plan_scenario(adc::scenario::parse_spec_text(kSmallSpec));
  adc::scenario::ResultCache cache(path("cache"));
  cache.ensure_writable();
  ASSERT_EQ(cache.try_claim(plan.hashes[0], "crashed", 1000, adc::scenario::kClaimLeaseMs),
            adc::scenario::ClaimOutcome::kAcquired);

  auto& service = start_service();
  TestClient client(service.socket_path());
  client.send(run_request(kSmallSpec, "r1"));
  const auto summary = client.await("summary");
  EXPECT_EQ(summary.find("computed")->as_uint64(), 4u);
  EXPECT_EQ(summary.find("deduped")->as_uint64(), 0u);
  const auto reference = batch_report(kSmallSpec, path("batch_cache"));
  EXPECT_EQ(json::dump(*summary.find("report")), json::dump(reference));
  expect_no_litter();
}

TEST_F(ServiceTest, FailedClaimFailsOnlyItsOwnRequest) {
  // A regular file where one job's fan-out directory belongs: that job can
  // be neither claimed nor stored. Pick a job whose directory no job of the
  // follow-up spec needs.
  const auto doomed = adc::scenario::plan_scenario(adc::scenario::parse_spec_text(kSmallSpec));
  const auto next = adc::scenario::plan_scenario(adc::scenario::parse_spec_text(kSlowSpec));
  std::string blocked;
  for (const auto& hash : doomed.hashes) {
    const std::string dir = hash.substr(0, 2);
    const bool shared = std::any_of(next.hashes.begin(), next.hashes.end(), [&](const auto& h) {
      return h.substr(0, 2) == dir;
    });
    if (!shared) {
      blocked = dir;
      break;
    }
  }
  ASSERT_FALSE(blocked.empty());
  fs::create_directories(path("cache"));
  std::ofstream(path("cache") + "/" + blocked) << "not a directory";

  auto& service = start_service();
  TestClient client(service.socket_path());
  client.send(run_request(kSmallSpec, "doomed"));
  const auto error = client.await("error");
  EXPECT_EQ(error.find("code")->as_string(), error_code::kExecutionFailed);
  EXPECT_EQ(error.find("id")->as_string(), "doomed");

  // The scheduler survived: the next request completes (and `await` fails on
  // any further error event).
  client.send(run_request(kSlowSpec, "next"));
  const auto summary = client.await("summary");
  EXPECT_EQ(summary.find("id")->as_string(), "next");
  const auto reference = batch_report(kSlowSpec, path("batch_cache"));
  EXPECT_EQ(json::dump(*summary.find("report")), json::dump(reference));
  EXPECT_EQ(service.counters().requests_failed, 1u);
  EXPECT_EQ(service.counters().requests_completed, 1u);
  expect_no_litter();
}

TEST_F(ServiceTest, MaxJobsBudgetSkipsExcessMisses) {
  auto& service = start_service();
  TestClient client(service.socket_path());
  client.send(run_request(kSmallSpec, "budget", /*max_jobs=*/2));
  const auto summary = client.await("summary");
  EXPECT_EQ(summary.find("computed")->as_uint64(), 2u);
  EXPECT_EQ(summary.find("skipped")->as_uint64(), 2u);
  // Skipped cells appear in the report as rows with null metrics, exactly as
  // in a batch run interrupted by --max-jobs.
  std::size_t null_rows = 0;
  for (const auto& row : summary.find("report")->find("results")->items()) {
    if (row.find("metrics")->is_null()) ++null_rows;
  }
  EXPECT_EQ(null_rows, 2u);
}

TEST_F(ServiceTest, AdmissionRejectsRequestsBeyondTheBound) {
  auto& service = start_service(/*max_inflight=*/1, /*max_requests=*/1);
  TestClient client(service.socket_path());
  client.send(run_request(kSlowSpec, "first"));
  client.send(run_request(kSmallSpec, "second"));  // while `first` is active

  const auto error = client.await("error");
  EXPECT_EQ(error.find("code")->as_string(), error_code::kAdmission);
  EXPECT_EQ(error.find("id")->as_string(), "second");
  // The admitted request is unaffected by the rejection.
  const auto summary = client.await("summary");
  EXPECT_EQ(summary.find("id")->as_string(), "first");
  EXPECT_EQ(summary.find("jobs")->as_uint64(), 4u);
}

TEST_F(ServiceTest, DuplicateRequestIdIsRejected) {
  auto& service = start_service(/*max_inflight=*/1);
  TestClient client(service.socket_path());
  client.send(run_request(kSlowSpec, "same"));
  client.send(run_request(kSmallSpec, "same"));
  const auto error = client.await("error");
  EXPECT_EQ(error.find("code")->as_string(), error_code::kDuplicateId);
  (void)client.await("summary");
}

TEST_F(ServiceTest, MalformedLinesAndInvalidSpecsGetStructuredErrors) {
  auto& service = start_service();
  TestClient client(service.socket_path());

  client.send(json::JsonValue("not an object"));
  auto error = client.await("error");
  EXPECT_EQ(error.find("code")->as_string(), error_code::kBadRequest);

  auto bad_run = json::JsonValue::object();
  bad_run.set("type", "run");
  bad_run.set("id", "bad");
  bad_run.set("spec", json::parse(R"({"name": "x"})"));
  client.send(bad_run);
  error = client.await("error");
  EXPECT_EQ(error.find("code")->as_string(), error_code::kInvalidSpec);
  EXPECT_EQ(error.find("id")->as_string(), "bad");

  auto cancel = json::JsonValue::object();
  cancel.set("type", "cancel");
  cancel.set("id", "ghost");
  client.send(cancel);
  error = client.await("error");
  EXPECT_EQ(error.find("code")->as_string(), error_code::kUnknownRequest);
}

TEST_F(ServiceTest, StatusReportsRequestsCacheAndPool) {
  auto& service = start_service();
  {
    TestClient warmup(service.socket_path());
    warmup.send(run_request(kSmallSpec, "w"));
    (void)warmup.await("summary");
  }
  TestClient client(service.socket_path());
  auto status_request = json::JsonValue::object();
  status_request.set("type", "status");
  client.send(status_request);
  const auto status = client.await("status");

  EXPECT_EQ(status.find("protocol")->as_uint64(), kProtocolVersion);
  EXPECT_EQ(status.find("counters")->find("requests_completed")->as_uint64(), 1u);
  EXPECT_EQ(status.find("counters")->find("cells_computed")->as_uint64(), 4u);
  EXPECT_EQ(status.find("cache")->find("entries")->as_uint64(), 4u);
  EXPECT_TRUE(status.find("pool")->find("submitted")->is_integer());
  EXPECT_TRUE(status.find("requests")->is_array());
}

TEST_F(ServiceTest, ShutdownRequestDrainsAndRejectsNewWork) {
  auto& service = start_service();
  TestClient client(service.socket_path());
  auto shutdown = json::JsonValue::object();
  shutdown.set("type", "shutdown");
  client.send(shutdown);
  (void)client.await("bye");
  EXPECT_TRUE(service.shutdown_requested());

  client.send(run_request(kSmallSpec, "late"));
  const auto error = client.await("error");
  EXPECT_EQ(error.find("code")->as_string(), error_code::kShuttingDown);
  service.stop();
}

TEST_F(ServiceTest, UnusableCacheRootFailsStartWithOneClearError) {
  // A plain file where the cache root should be: creation must fail.
  const std::string file_as_root = path("not_a_dir");
  std::ofstream(file_as_root) << "occupied";
  ServiceOptions options;
  options.socket_path = path("s.sock");
  options.cache_dir = file_as_root;
  ScenarioService service(options);
  try {
    service.start();
    FAIL() << "start() accepted a file as the cache root";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find(file_as_root), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("cache root"), std::string::npos);
  }
}
