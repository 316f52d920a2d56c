#include "service/server.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <optional>
#include <span>
#include <utility>

#include "common/error.hpp"
#include "runtime/manifest.hpp"
#include "runtime/parallel.hpp"
#include "scenario/claims.hpp"
#include "scenario/hash.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace adc::service {

namespace json = adc::common::json;
using adc::common::AdcError;
using adc::common::ConfigError;

/// Poll granularity of the accept/read loops (how quickly a stop flag is
/// observed) and of parked-cell retries (how quickly a store by another
/// process is seen); not a correctness knob.
constexpr int kPollMs = 200;

/// Hard bound on one connection's queued-but-unwritten event lines. Hitting
/// it means the client stopped draining its socket; the connection is killed
/// rather than buffered without limit.
constexpr std::size_t kMaxQueuedLines = 4096;
/// Soft bound: above this queue depth the scheduler stops starting new cells
/// for the tenant, giving a slow-but-alive client time to catch up before
/// the hard bound disconnects it.
constexpr std::size_t kSendQueueBackpressure = kMaxQueuedLines / 2;
/// Per-line write deadline for the connection writer threads. A peer whose
/// socket accepts no bytes for this long is treated as gone.
constexpr int kWriteDeadlineMs = 5000;

/// The message of the exception being handled, for an execution_failed
/// event.
std::string current_failure() {
  try {
    throw;
  } catch (const std::exception& e) {
    if (*e.what() != '\0') return e.what();
  } catch (...) {
  }
  return "unknown execution failure";
}

struct ScenarioService::Connection {
  std::uint64_t id = 0;
  UnixStream stream;
  /// False once the peer is gone (EOF, write failure, or send-queue
  /// overflow). Guarded by the service mutex_ for state decisions.
  bool open = true;
  std::size_t inflight = 0;         ///< computing cells owned by this tenant
  std::size_t active_requests = 0;  ///< admitted run requests
  std::thread reader;

  // Outbound delivery: a bounded FIFO drained by `writer`. send_mutex is a
  // leaf lock — safe to take while holding the service mutex_, never the
  // other way around.
  std::mutex send_mutex;
  std::condition_variable send_cv;
  std::deque<std::string> send_queue;
  bool send_closed = false;  ///< no further enqueues; the writer drains and exits
  std::atomic<std::size_t> queued{0};  ///< send_queue.size(), for lock-free peeks
  std::thread writer;
};

struct ScenarioService::RunState {
  std::shared_ptr<Connection> conn;
  std::string id;         ///< client correlation id
  std::uint64_t seq = 0;  ///< service-wide sequence (manifest naming)
  adc::scenario::ScenarioSpec spec;
  adc::scenario::ScenarioPlan plan;
  adc::runtime::CancellationToken cancel;
  std::vector<std::optional<json::JsonValue>> payloads;

  std::size_t next_job = 0;          ///< scheduler cursor into plan.jobs
  std::size_t scheduled_misses = 0;  ///< misses dispatched (max_jobs budget)
  std::uint64_t max_jobs = 0;        ///< 0 = unlimited
  std::size_t inflight = 0;          ///< own pool jobs still running
  /// Cells the claim gate declined (being computed elsewhere), oldest
  /// first; the first `retry` of them are due for another probe.
  std::deque<std::size_t> parked;
  std::size_t retry = 0;

  std::uint64_t delivered = 0;  ///< cells streamed (payload recorded)
  adc::scenario::RunTally tally;  ///< `elsewhere` counts the `dedup` cells

  bool cancel_requested = false;  ///< explicit cancel (gets a terminal event)
  bool failed = false;            ///< terminal error event already sent
  bool finished = false;          ///< removed from scheduling
};

/// A request that completed under mutex_. Its manifest is built there;
/// publish_completions writes it and then queues the summary, off the lock.
struct ScenarioService::Completion {
  std::shared_ptr<RunState> run;
  adc::runtime::RunManifest manifest;
  bool deliver = false;  ///< the connection was open at completion
};

ScenarioService::ScenarioService(ServiceOptions options)
    : options_(std::move(options)), cache_(options_.cache_dir) {
  adc::common::require(!options_.socket_path.empty(),
                       "ScenarioService: socket_path is required");
  adc::common::require(options_.max_inflight_per_connection > 0 &&
                           options_.max_requests_per_connection > 0,
                       "ScenarioService: admission bounds must be positive");
}

ScenarioService::~ScenarioService() { stop(); }

void ScenarioService::start() {
  adc::common::require(!started_, "ScenarioService: already started");
  cache_.ensure_writable();
  listener_ = std::make_unique<UnixListener>(options_.socket_path);
  holder_ = std::make_unique<adc::scenario::ClaimHolder>(
      cache_, adc::scenario::default_claim_owner());
  stopping_.store(false, std::memory_order_relaxed);
  accept_thread_ = std::thread([this] { accept_loop(); });
  scheduler_thread_ = std::thread([this] { scheduler_loop(); });
  started_ = true;
}

void ScenarioService::stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_relaxed);
  // Join the accept loop *before* touching the listener: accept() polls the
  // listening descriptor, so closing it concurrently would race on the fd
  // (and a reused descriptor number could be polled by accident). The loop
  // observes stopping_ within one kPollMs tick.
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_->close();

  // Disconnect every client: shutdown wakes blocked readers with EOF.
  std::vector<std::shared_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    connections = connections_;
  }
  for (const auto& conn : connections) conn->stream.shutdown_both();
  for (const auto& conn : connections) {
    if (conn->reader.joinable()) conn->reader.join();
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& run : active_) run->cancel.cancel();
  }
  work_cv_.notify_all();
  if (scheduler_thread_.joinable()) scheduler_thread_.join();

  // Drain pool jobs still carrying references into this object; each has
  // released its claim, so the holder has nothing left to release.
  {
    std::unique_lock<std::mutex> lock(mutex_);
    drain_cv_.wait(lock, [this] { return pending_pool_jobs_ == 0; });
  }
  holder_.reset();

  // Nothing enqueues anymore: retire the writers. Their streams are already
  // shut down, so a remaining backlog fails fast instead of waiting out
  // write deadlines.
  for (const auto& conn : connections) close_send_queue(conn);
  for (const auto& conn : connections) {
    if (conn->writer.joinable()) conn->writer.join();
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    active_.clear();
    connections_.clear();
  }
  listener_.reset();
  started_ = false;
}

ServiceCounters ScenarioService::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

// ---------------------------------------------------------------------------
// Connection handling

void ScenarioService::accept_loop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    auto stream = listener_->accept(kPollMs);

    // Reap readers that finished on their own (client hung up).
    std::vector<std::shared_ptr<Connection>> dead;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (auto it = connections_.begin(); it != connections_.end();) {
        if (!(*it)->open && (*it)->active_requests == 0 && (*it)->inflight == 0) {
          dead.push_back(*it);
          it = connections_.erase(it);
        } else {
          ++it;
        }
      }
    }
    for (const auto& conn : dead) {
      if (conn->reader.joinable()) conn->reader.join();
      close_send_queue(conn);
      if (conn->writer.joinable()) conn->writer.join();
    }

    if (!stream.has_value()) continue;
    auto conn = std::make_shared<Connection>();
    conn->stream = std::move(*stream);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      conn->id = next_connection_id_++;
      connections_.push_back(conn);
      ++counters_.connections_accepted;
    }
    conn->writer = std::thread([this, conn] { writer_loop(conn); });
    conn->reader = std::thread([this, conn] { reader_loop(conn); });
  }
}

void ScenarioService::reader_loop(const std::shared_ptr<Connection>& conn) {
  send_line(conn, encode_event(hello_event(
                      adc::scenario::to_hex(adc::scenario::golden_code_fingerprint()))));
  std::string line;
  while (!stopping_.load(std::memory_order_relaxed)) {
    const auto status = conn->stream.read_line(line, kPollMs);
    if (status == UnixStream::ReadStatus::kTimeout) continue;
    if (status == UnixStream::ReadStatus::kClosed) break;
    handle_line(conn, line);
  }
  on_disconnect(conn);
}

void ScenarioService::handle_line(const std::shared_ptr<Connection>& conn,
                                  const std::string& line) {
  Request request;
  try {
    request = parse_request(line);
  } catch (const ConfigError& e) {
    send_line(conn, encode_event(error_event("", error_code::kBadRequest, e.what())));
    return;
  }
  switch (request.type) {
    case Request::Type::kRun: handle_run(conn, std::move(request)); break;
    case Request::Type::kCancel: handle_cancel(conn, request); break;
    case Request::Type::kStatus: handle_status(conn); break;
    case Request::Type::kShutdown: handle_shutdown(conn); break;
  }
}

void ScenarioService::handle_run(const std::shared_ptr<Connection>& conn,
                                 Request request) {
  if (shutdown_requested_.load(std::memory_order_relaxed) ||
      stopping_.load(std::memory_order_relaxed)) {
    send_line(conn, encode_event(error_event(request.id, error_code::kShuttingDown,
                                             "service is shutting down")));
    return;
  }

  auto run = std::make_shared<RunState>();
  run->conn = conn;
  run->id = request.id;
  run->max_jobs = request.max_jobs;
  try {
    run->spec = adc::scenario::parse_spec(request.spec);
    run->plan = adc::scenario::plan_scenario(run->spec);
  } catch (const AdcError& e) {
    send_line(conn, encode_event(
                        error_event(request.id, error_code::kInvalidSpec, e.what())));
    return;
  }
  run->payloads.resize(run->plan.jobs.size());
  run->tally.jobs_total = run->plan.jobs.size();

  {
    std::lock_guard<std::mutex> lock(mutex_);
    const bool duplicate =
        std::any_of(active_.begin(), active_.end(), [&](const auto& other) {
          return other->conn == conn && other->id == request.id;
        });
    if (duplicate) {
      send_line(conn, encode_event(error_event(
                          request.id, error_code::kDuplicateId,
                          "request id \"" + request.id +
                              "\" is already active on this connection")));
      return;
    }
    if (conn->active_requests >= options_.max_requests_per_connection) {
      send_line(conn, encode_event(error_event(
                          request.id, error_code::kAdmission,
                          "connection already has " +
                              std::to_string(conn->active_requests) +
                              " active requests (limit " +
                              std::to_string(options_.max_requests_per_connection) +
                              ")")));
      return;
    }
    run->seq = next_run_seq_++;
    ++conn->active_requests;
    ++counters_.requests_accepted;
    // `accepted` goes onto the connection FIFO *before* the run is published
    // to active_, all under mutex_: the scheduler cannot enqueue a cell (or
    // a warm-cache summary) ahead of it.
    send_line(conn, encode_event(accepted_event(run->id, run->spec.name,
                                                run->plan.spec_hash,
                                                run->plan.jobs.size())));
    active_.push_back(run);
  }
  // An empty sweep (cannot happen today — expand_jobs yields >= 1 job) would
  // finalize on its first scheduler visit; no special case needed here.
  work_cv_.notify_all();
}

void ScenarioService::handle_cancel(const std::shared_ptr<Connection>& conn,
                                    const Request& request) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = std::find_if(active_.begin(), active_.end(), [&](const auto& run) {
      return run->conn == conn && run->id == request.id;
    });
    if (it == active_.end()) {
      send_line(conn, encode_event(error_event(
                          request.id, error_code::kUnknownRequest,
                          "no active request \"" + request.id + "\"")));
    } else {
      (*it)->cancel_requested = true;
      (*it)->cancel.cancel();
      maybe_finalize_locked(*it);
    }
  }
  work_cv_.notify_all();
}

void ScenarioService::handle_status(const std::shared_ptr<Connection>& conn) {
  auto requests = json::JsonValue::array();
  ServiceCounters counters;
  std::size_t computing = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& run : active_) {
      auto row = json::JsonValue::object();
      row.set("id", run->id);
      row.set("connection", run->conn->id);
      row.set("scenario", run->spec.name);
      row.set("jobs", static_cast<std::uint64_t>(run->plan.jobs.size()));
      row.set("delivered", run->delivered);
      row.set("inflight", static_cast<std::uint64_t>(run->inflight));
      row.set("cancelled", run->cancel.cancelled());
      requests.push_back(std::move(row));
    }
    counters = counters_;
    computing = pending_pool_jobs_;
  }

  auto totals = json::JsonValue::object();
  totals.set("connections_accepted", counters.connections_accepted);
  totals.set("requests_accepted", counters.requests_accepted);
  totals.set("requests_completed", counters.requests_completed);
  totals.set("requests_cancelled", counters.requests_cancelled);
  totals.set("requests_failed", counters.requests_failed);
  totals.set("cells_hit", counters.cells_hit);
  totals.set("cells_deduped", counters.cells_deduped);
  totals.set("cells_computed", counters.cells_computed);

  auto pool = adc::runtime::pool_document(adc::runtime::global_pool().counters());
  pool.set("threads",
           static_cast<std::uint64_t>(adc::runtime::global_pool().thread_count()));

  auto event = json::JsonValue::object();
  event.set("event", "status");
  event.set("protocol", kProtocolVersion);
  event.set("requests", std::move(requests));
  event.set("inflight_cells", static_cast<std::uint64_t>(computing));
  event.set("counters", std::move(totals));
  event.set("pool", std::move(pool));
  // Disk walk outside the service lock; session counters are atomics.
  event.set("cache", cache_.stats_document());
  send_line(conn, encode_event(event));
}

void ScenarioService::handle_shutdown(const std::shared_ptr<Connection>& conn) {
  shutdown_requested_.store(true, std::memory_order_relaxed);
  send_line(conn, encode_event(bye_event()));
}

void ScenarioService::on_disconnect(const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    conn->open = false;
    for (const auto& run : active_) {
      if (run->conn != conn) continue;
      run->cancel.cancel();
      maybe_finalize_locked(run);
    }
  }
  // The peer is gone: retire the writer (a remaining backlog fails fast).
  close_send_queue(conn);
  work_cv_.notify_all();
}

// ---------------------------------------------------------------------------
// Scheduling

void ScenarioService::scheduler_loop() {
  using Clock = std::chrono::steady_clock;
  std::unique_lock<std::mutex> lock(mutex_);
  auto last_retry = Clock::now();
  while (!stopping_.load(std::memory_order_relaxed)) {
    // Parked cells come due when one of this service's cells stored, and at
    // every poll tick — the only way a store by another process is seen.
    const auto now = Clock::now();
    if (retry_parked_ || now - last_retry >= std::chrono::milliseconds(kPollMs)) {
      retry_parked_ = false;
      last_retry = now;
      for (const auto& run : active_) run->retry = run->parked.size();
    }
    std::shared_ptr<RunState> run;
    std::size_t index = 0;
    bool retry = false;
    if (!pick_next_locked(run, index, retry)) {
      work_cv_.wait_for(lock, std::chrono::milliseconds(kPollMs));
      continue;
    }
    lock.unlock();
    dispatch_cell(run, index, retry);
    lock.lock();
  }
}

bool ScenarioService::pick_next_locked(std::shared_ptr<RunState>& run, std::size_t& index,
                                       bool& retry) {
  const std::size_t n = active_.size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t at = (rr_cursor_ + k) % n;
    const auto& candidate = active_[at];
    if (candidate->finished || candidate->cancel.cancelled()) continue;
    retry = candidate->retry > 0;
    if (!retry && candidate->next_job >= candidate->plan.jobs.size()) continue;
    if (candidate->conn->inflight >= options_.max_inflight_per_connection) continue;
    // Backpressure: a tenant whose send queue is deep gets no new cells
    // until its client catches up (or overflows the hard bound and dies).
    if (candidate->conn->queued.load(std::memory_order_relaxed) >=
        kSendQueueBackpressure) {
      continue;
    }
    run = candidate;
    if (retry) {
      index = candidate->parked.front();
      candidate->parked.pop_front();
      --candidate->retry;
    } else {
      index = candidate->next_job++;
    }
    rr_cursor_ = (at + 1) % n;  // fairness: the next turn goes to the next tenant
    return true;
  }
  return false;
}

void ScenarioService::dispatch_cell(const std::shared_ptr<RunState>& run,
                                    std::size_t index, bool retry) {
  const std::string& hash = run->plan.hashes[index];

  // Probe the shared warm tier (disk I/O, no lock held). A parked cell that
  // now hits was served by the computation it was parked behind.
  const auto payload = cache_.load(hash);
  {
    std::unique_lock<std::mutex> lock(mutex_);
    if (run->finished || run->cancel.cancelled()) return;
    if (payload.has_value()) {
      record_payload_locked(run, index, *payload,
                            retry ? CellOrigin::kDedup : CellOrigin::kHit);
      publish_completions(lock);
      return;
    }
    if (run->max_jobs != 0 && run->scheduled_misses >= run->max_jobs) {
      ++run->tally.skipped;  // hits are still served, misses skipped
      maybe_finalize_locked(run);
      publish_completions(lock);
      return;
    }
  }

  // Gate the miss through the claim holder (disk I/O, no lock held). A
  // failing claim fails this request only.
  std::vector<std::size_t> granted;
  std::string failure;
  try {
    granted = holder_->gate(std::span(&hash, 1));
  } catch (...) {
    failure = current_failure();
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!failure.empty()) {
      fail_request_locked(run, failure);
      return;
    }
    if (granted.empty()) {
      run->parked.push_back(index);
      return;
    }
    ++run->scheduled_misses;
    ++run->inflight;
    ++run->conn->inflight;
    ++pending_pool_jobs_;
  }
  adc::runtime::global_pool().submit([this, run, index] {
    // Releases this job's count in pending_pool_jobs_ on every exit, a throw
    // included: stop() waits for the count to reach zero. Notify *inside*
    // the critical section: pool workers are not joined by stop() (only
    // drained via pending_pool_jobs_), so a notify after the unlock could
    // touch condition variables of an already-destroyed service. Under the
    // lock, stop() cannot observe the zero count until the notify has
    // happened.
    struct PendingJob {
      ScenarioService& service;
      ~PendingJob() {
        std::lock_guard<std::mutex> lock(service.mutex_);
        --service.pending_pool_jobs_;
        service.drain_cv_.notify_all();
        service.work_cv_.notify_all();
      }
    } pending{*this};
    json::JsonValue computed;
    std::string error;
    try {
      // Stored before the claim is released and before delivery — a
      // cancelled or crashed request leaves its finished cells behind for
      // bit-identical resume.
      computed = std::move(
          adc::scenario::execute_unit(run->spec, run->plan, std::span(&index, 1), &cache_)
              .front());
    } catch (...) {
      error = current_failure();
    }
    try {
      holder_->release(std::span(&run->plan.hashes[index], 1));
    } catch (...) {
      if (error.empty()) error = current_failure();
    }

    std::unique_lock<std::mutex> lock(mutex_);
    --run->inflight;
    --run->conn->inflight;
    if (error.empty()) {
      record_payload_locked(run, index, computed, CellOrigin::kMiss);
    } else {
      fail_request_locked(run, error);
    }
    // Parked duplicates retry on their own: a hit now, or a claim of their
    // own after a failure.
    retry_parked_ = true;
    // This job is still counted in pending_pool_jobs_, so stop() waits
    // for the publish.
    publish_completions(lock);
  });
}

void ScenarioService::record_payload_locked(const std::shared_ptr<RunState>& run,
                                            std::size_t index,
                                            const json::JsonValue& payload,
                                            CellOrigin origin) {
  if (run->finished) return;
  run->payloads[index] = payload;
  switch (origin) {
    case CellOrigin::kHit:
      ++run->tally.cache_hits;
      ++counters_.cells_hit;
      break;
    case CellOrigin::kMiss:
      ++run->tally.computed;
      ++counters_.cells_computed;
      break;
    case CellOrigin::kDedup:
      ++run->tally.elsewhere;
      ++counters_.cells_deduped;
      break;
  }
  // `delivered` counts only cell events actually placed on the wire queue:
  // cells finishing after a cancel (suppressed here) or after the queue
  // closed must not be claimed by the terminal `cancelled` event.
  if (run->conn->open && !run->cancel.cancelled() &&
      send_line(run->conn, encode_event(cell_event(run->id, index,
                                                   run->plan.hashes[index],
                                                   origin, payload)))) {
    ++run->delivered;
  }
  maybe_finalize_locked(run);
}

void ScenarioService::maybe_finalize_locked(const std::shared_ptr<RunState>& run) {
  if (run->finished) return;
  // Parked cells do not hold a request open: they are not computing here,
  // and a complete request has none left.
  if (run->inflight != 0) return;

  const bool cancelled = run->cancel.cancelled();
  const auto& t = run->tally;
  const bool complete = t.cache_hits + t.computed + t.elsewhere + t.skipped == t.jobs_total;
  if (!cancelled && !complete) return;

  if (!cancelled && complete) {
    // Per-request provenance, opt-in via ADC_RUNTIME_MANIFEST_DIR. The
    // manifest is built here; publish_completions writes it before it
    // queues the summary, so a client holding the summary finds it.
    Completion done{run,
                    adc::runtime::RunManifest("service_" + run->spec.name + "_" +
                                              std::to_string(run->seq)),
                    run->conn->open};
    adc::scenario::stamp_manifest(done.manifest, run->spec, run->plan.spec_hash,
                                  cache_.root(), run->tally);
    done.manifest.set("connection", run->conn->id);
    done.manifest.set_pool_telemetry(adc::runtime::global_pool().counters(),
                                     adc::runtime::global_pool().latency_histogram());
    completions_.push_back(std::move(done));
    ++counters_.requests_completed;
  } else if (run->cancel_requested && !run->failed) {
    if (run->conn->open) {
      send_line(run->conn, encode_event(cancelled_event(run->id, run->delivered)));
    }
    ++counters_.requests_cancelled;
  } else if (!run->failed) {
    // Disconnect-driven cancellation: nobody left to notify.
    ++counters_.requests_cancelled;
  }

  run->finished = true;
  if (run->conn->active_requests > 0) --run->conn->active_requests;
  active_.erase(std::remove(active_.begin(), active_.end(), run), active_.end());
}

void ScenarioService::fail_request_locked(const std::shared_ptr<RunState>& run,
                                          const std::string& message) {
  if (run->finished) return;
  run->cancel.cancel();
  if (!run->failed) {
    run->failed = true;
    ++counters_.requests_failed;
    if (run->conn->open) {
      send_line(run->conn, encode_event(error_event(
                               run->id, error_code::kExecutionFailed, message)));
    }
  }
  maybe_finalize_locked(run);
}

void ScenarioService::publish_completions(std::unique_lock<std::mutex>& lock) {
  const auto done = std::exchange(completions_, {});
  lock.unlock();
  for (const auto& c : done) {
    // Telemetry never decides a request's outcome: a manifest that cannot
    // be written is reported here, and the summary still goes out.
    try {
      (void)c.manifest.write_to_env_dir();
    } catch (...) {
      std::fprintf(stderr,  // lint-ok: telemetry failure must not fail the request
                   "adc_scenariod: request %s: manifest not written: %s\n", c.run->id.c_str(),
                   current_failure().c_str());
    }
    if (!c.deliver) continue;
    // A finished run is never written again, and its payloads are never
    // read again, so the report takes them by move.
    RunState& run = *c.run;
    auto report = adc::scenario::build_report(run.spec, run.plan, std::move(run.payloads));
    send_line(run.conn, encode_event(summary_event(
                            run.id, run.plan.jobs.size(), run.tally.cache_hits,
                            run.tally.elsewhere, run.tally.computed, run.tally.skipped,
                            std::move(report))));
  }
}

// ---------------------------------------------------------------------------
// Output

bool ScenarioService::send_line(const std::shared_ptr<Connection>& conn,
                                const std::string& line) {
  bool overflow = false;
  {
    std::lock_guard<std::mutex> lock(conn->send_mutex);
    if (conn->send_closed) return false;
    if (conn->send_queue.size() >= kMaxQueuedLines) {
      conn->send_closed = true;
      conn->send_queue.clear();
      conn->queued.store(0, std::memory_order_relaxed);
      overflow = true;
    } else {
      conn->send_queue.push_back(line);
      conn->queued.store(conn->send_queue.size(), std::memory_order_relaxed);
    }
  }
  conn->send_cv.notify_one();
  if (overflow) {
    // The client stopped draining its socket and blew through the
    // backpressure bound: kill the connection. The reader observes the
    // shutdown as EOF and runs the disconnect/cancellation path.
    conn->stream.shutdown_both();
    return false;
  }
  return true;
}

void ScenarioService::close_send_queue(const std::shared_ptr<Connection>& conn) {
  {
    std::lock_guard<std::mutex> lock(conn->send_mutex);
    conn->send_closed = true;
  }
  conn->send_cv.notify_all();
}

void ScenarioService::writer_loop(const std::shared_ptr<Connection>& conn) {
  std::unique_lock<std::mutex> lock(conn->send_mutex);
  for (;;) {
    conn->send_cv.wait(
        lock, [&] { return conn->send_closed || !conn->send_queue.empty(); });
    if (conn->send_queue.empty()) return;  // closed and drained
    std::string line = std::move(conn->send_queue.front());
    conn->send_queue.pop_front();
    conn->queued.store(conn->send_queue.size(), std::memory_order_relaxed);
    lock.unlock();
    const bool delivered = conn->stream.write_line(line, kWriteDeadlineMs);
    lock.lock();
    if (!delivered) {
      // Stalled or vanished peer: drop the backlog and force the reader to
      // observe the disconnect, which runs the cancellation path.
      conn->send_closed = true;
      conn->send_queue.clear();
      conn->queued.store(0, std::memory_order_relaxed);
      conn->stream.shutdown_both();
      return;
    }
  }
}

}  // namespace adc::service
