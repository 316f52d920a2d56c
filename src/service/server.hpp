/// \file server.hpp
/// The scenario service: a long-running multi-tenant simulation server over
/// the content-addressed cache.
///
/// `ScenarioService` listens on a Unix-domain socket and speaks the
/// newline-delimited JSON protocol of protocol.hpp. Each connection is a
/// tenant; each validated `run` request is planned through the *same*
/// planner entry point as the batch CLI (scenario::plan_scenario), so the
/// daemon and `adc_scenario run` content-address every job identically and
/// share every cache entry.
///
/// Execution model:
///
///   * **One scheduler thread** drains all active requests in fair
///     round-robin order — one cell per turn — so a giant sweep never
///     starves a smoke run submitted next to it.
///   * **Admission control** is per tenant: at most
///     `max_requests_per_connection` active requests and at most
///     `max_inflight_per_connection` computing cells per connection;
///     requests beyond the bound are rejected with an `admission_rejected`
///     error event, cells beyond it simply wait their turn.
///   * **The shared warm tier**: every cell probes the content-addressed
///     ResultCache first. A hit is streamed directly from the scheduler
///     thread — a fully cached request completes with *zero* pool
///     submissions (the property CI asserts).
///   * **One executor, one exactly-once**: a miss goes through the claim
///     gate of scenario/claims.hpp (`ClaimHolder::gate`, the one the fleet
///     worker uses) on the scheduler thread. A granted cell is computed on
///     the process-wide work-stealing pool (runtime::global_pool) by
///     scenario::execute_unit for that one job, stored, and only then
///     released and delivered, so an interrupted request resumes
///     bit-identically. A declined cell — identical to one this service is
///     computing, or claimed by another process on the same cache root (an
///     `adc_fleet` worker, another daemon) — is *parked*. Parked cells are
///     retried when one of this service's units stores and at every
///     `kPollMs` tick; one that then hits is streamed as `dedup`. N
///     identical requests, in one daemon or across a daemon and a fleet,
///     cost one computation.
///   * **Cancellation**: every request carries a runtime::CancellationToken
///     that fires on an explicit `cancel` message or on client disconnect.
///     Cancelling stops *scheduling*; already-running cells complete and
///     their results are stored, so a later identical request resumes from
///     the cache bit-identically (nothing is poisoned).
///   * **Bounded delivery**: events are enqueued on a per-connection FIFO
///     (order fixed under the service lock — `accepted` always precedes the
///     run's `cell` events, which precede its terminal event) and drained by
///     a per-connection writer thread under a write deadline. A client that
///     stops draining its socket is disconnected on queue overflow or write
///     timeout; it can never stall the scheduler, the pool workers, or other
///     tenants.
///
/// Completed requests emit a terminal `summary` event whose embedded report
/// document is byte-identical to the batch CLI's report for the same spec
/// (both are scenario::build_report output). When ADC_RUNTIME_MANIFEST_DIR
/// is set, each completed request also writes a RunManifest
/// (`service_<scenario>_<seq>_manifest.json`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <atomic>
#include <condition_variable>

#include "scenario/cache.hpp"
#include "scenario/claims.hpp"
#include "service/protocol.hpp"
#include "service/socket.hpp"

namespace adc::service {

/// Construction options for one service instance.
struct ServiceOptions {
  /// Filesystem path of the Unix-domain listening socket (required).
  std::string socket_path;
  /// Cache root ("" = ADC_SCENARIO_CACHE_DIR, else ".adc-cache").
  std::string cache_dir;
  /// Maximum concurrently *computing* cells per connection. Cache hits and
  /// parked cells are not counted — they cost no pool time.
  std::size_t max_inflight_per_connection = 4;
  /// Maximum simultaneously active run requests per connection.
  std::size_t max_requests_per_connection = 8;
};

/// Monotonic service counters (since start), readable while running.
struct ServiceCounters {
  std::uint64_t connections_accepted = 0;
  std::uint64_t requests_accepted = 0;
  std::uint64_t requests_completed = 0;
  std::uint64_t requests_cancelled = 0;
  std::uint64_t requests_failed = 0;
  std::uint64_t cells_hit = 0;      ///< served from the on-disk cache
  std::uint64_t cells_deduped = 0;  ///< parked, then served by a computation
                                    ///< in flight when it was scheduled
  std::uint64_t cells_computed = 0; ///< computed on the pool by this service
};

class ScenarioService {
 public:
  explicit ScenarioService(ServiceOptions options);
  /// Stops the service if still running.
  ~ScenarioService();

  ScenarioService(const ScenarioService&) = delete;
  ScenarioService& operator=(const ScenarioService&) = delete;

  /// Validate the cache root (ResultCache::ensure_writable), bind the
  /// socket, and spawn the accept + scheduler threads. Throws ConfigError
  /// on an unusable cache root or socket path.
  void start();

  /// Graceful stop: close the listener, disconnect clients, cancel active
  /// requests, and drain in-flight pool work. Idempotent.
  void stop();

  /// True once a client issued a `shutdown` request. The daemon polls this
  /// and calls stop(); in-process embedders may ignore it.
  [[nodiscard]] bool shutdown_requested() const {
    return shutdown_requested_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const std::string& socket_path() const { return options_.socket_path; }
  [[nodiscard]] const std::string& cache_root() const { return cache_.root(); }
  [[nodiscard]] ServiceCounters counters() const;

 private:
  struct Connection;
  struct RunState;

  void accept_loop();
  void reader_loop(const std::shared_ptr<Connection>& conn);
  /// Drains one connection's bounded send queue onto the socket, each line
  /// under a write deadline; a stalled or vanished peer kills the connection
  /// instead of blocking the threads that produce events.
  void writer_loop(const std::shared_ptr<Connection>& conn);
  void scheduler_loop();

  void handle_line(const std::shared_ptr<Connection>& conn, const std::string& line);
  void handle_run(const std::shared_ptr<Connection>& conn, Request request);
  void handle_cancel(const std::shared_ptr<Connection>& conn, const Request& request);
  void handle_status(const std::shared_ptr<Connection>& conn);
  void handle_shutdown(const std::shared_ptr<Connection>& conn);
  void on_disconnect(const std::shared_ptr<Connection>& conn);

  /// Pick the next (request, job index) in round-robin order — a due
  /// parked cell of a request before its next unscheduled one, with `retry`
  /// set — or false when nothing is schedulable right now. Caller holds
  /// mutex_.
  bool pick_next_locked(std::shared_ptr<RunState>& run, std::size_t& index, bool& retry);
  /// Probe the cache for one cell and stream the hit (`dedup` on a retry),
  /// skip it (budget), park it (the claim gate declined), or submit
  /// scenario::execute_unit for it to the pool.
  void dispatch_cell(const std::shared_ptr<RunState>& run, std::size_t index, bool retry);

  void record_payload_locked(const std::shared_ptr<RunState>& run, std::size_t index,
                             const adc::common::json::JsonValue& payload,
                             CellOrigin origin);
  void maybe_finalize_locked(const std::shared_ptr<RunState>& run);
  void fail_request_locked(const std::shared_ptr<RunState>& run,
                           const std::string& message);

  /// Enqueue one event line on the connection's FIFO send queue (drained by
  /// writer_loop). Non-blocking and safe with or without mutex_ held —
  /// protocol event order is fixed at enqueue time, so emitters that must
  /// order against the scheduler enqueue while holding mutex_. Returns false
  /// when the line was dropped (queue closed, or overflow just killed the
  /// connection).
  bool send_line(const std::shared_ptr<Connection>& conn, const std::string& line);
  /// Close the send queue (no new lines; the writer drains and exits).
  static void close_send_queue(const std::shared_ptr<Connection>& conn);

  ServiceOptions options_;
  adc::scenario::ResultCache cache_;
  std::unique_ptr<UnixListener> listener_;
  std::thread accept_thread_;
  std::thread scheduler_thread_;

  std::atomic<bool> stopping_{false};
  std::atomic<bool> shutdown_requested_{false};
  bool started_ = false;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< wakes the scheduler
  std::condition_variable drain_cv_;  ///< wakes stop() when pool work drains
  std::vector<std::shared_ptr<Connection>> connections_;
  std::vector<std::shared_ptr<RunState>> active_;
  std::size_t rr_cursor_ = 0;
  /// This service's claims on its cache root (start() to stop()).
  std::unique_ptr<adc::scenario::ClaimHolder> holder_;
  /// Set when one of this service's cells stored: parked cells are due.
  bool retry_parked_ = false;
  std::size_t pending_pool_jobs_ = 0;  ///< cells this service is computing
  ServiceCounters counters_;
  std::uint64_t next_connection_id_ = 1;
  std::uint64_t next_run_seq_ = 1;
};

}  // namespace adc::service
