/// \file served.cpp
/// served-mix: an in-process ScenarioService on a Unix socket with three
/// closed-loop tenants, one connection each. The mix is synthetic: no
/// recorded service traffic backs its shapes or proportions.
///
///   A  back-to-back cold fast-profile yields (256 dies, fresh seeds each),
///      until the measurement window has passed
///   B  cold exact-profile `smoke`-shape requests (fresh seeds each)
///   C  one pre-warmed `smoke` request, repeated
///
/// B and C loop until A's last request completes. The service uses the
/// global pool at the width every workload runs with, as the daemon does.
/// B's completion latency is the workload's request latency: it is what a
/// scheduler change that speeds A up (more pool share, batching) can cost
/// the small tenant. A's and C's latencies are reported alongside it.
#include <atomic>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "runtime/parallel.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/socket.hpp"
#include "workloads.hpp"

namespace adc_bench {

namespace json = adc::common::json;
namespace sc = adc::scenario;
namespace svc = adc::service;

namespace {

constexpr int kTimeoutMs = 60000;
constexpr const char* kSocket = "svc.sock";
/// Request numbers of a traced run's second window start here, so its
/// requests are as cold as the first window's.
constexpr std::uint64_t kSecondWindow = 100000;

/// One run request as the client saw it (times in steady-clock ns) and the
/// outcome of its checks. Requests are folded into a TenantLog as they
/// complete, so a long window does not grow the process.
struct Request {
  char tenant = 'A';
  std::uint64_t seq = 0;
  std::int64_t sent_ns = 0;
  std::int64_t accepted_ns = -1;
  std::int64_t done_ns = -1;
  std::vector<std::int64_t> cell_ns;
  bool all_hits = true;
  std::string report_digest;
  std::string error;  ///< transport, protocol or check failure

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Send one `run`, read events until its terminal one, then check that the
/// served report is the report of the cells it streamed.
Request issue(svc::UnixStream& conn, char tenant, std::uint64_t seq,
              const json::JsonValue& spec_doc) {
  Request r;
  r.tenant = tenant;
  r.seq = seq;
  std::string id(1, tenant);
  id += std::to_string(seq);
  auto message = json::JsonValue::object();
  message.set("type", "run");
  message.set("id", id);
  message.set("spec", spec_doc);
  const std::string line = json::dump_compact(message);
  try {
    std::vector<std::optional<json::JsonValue>> payloads;
    json::JsonValue report;
    r.sent_ns = now_ns();
    if (!conn.write_line(line)) throw std::runtime_error("write failed");
    std::string in;
    while (r.done_ns < 0) {
      const auto status = conn.read_line(in, kTimeoutMs);
      if (status == svc::UnixStream::ReadStatus::kTimeout) throw std::runtime_error("timeout");
      if (status == svc::UnixStream::ReadStatus::kClosed) {
        throw std::runtime_error("connection closed");
      }
      const std::int64_t t = now_ns();
      json::JsonValue event = json::parse(in);
      const std::string type = svc::event_type(event);
      if (type == "accepted") {
        r.accepted_ns = t;
        payloads.resize(event.find("jobs")->as_uint64());
      } else if (type == "cell") {
        r.cell_ns.push_back(t);
        const std::uint64_t index = event.find("index")->as_uint64();
        if (index < payloads.size()) payloads[index] = *event.find("metrics");
        r.all_hits = r.all_hits && event.find("origin")->as_string() == "hit";
      } else if (type == "summary") {
        r.done_ns = t;
        report = *event.find("report");
      } else if (type == "error" || type == "cancelled") {
        throw std::runtime_error(json::dump_compact(event));
      }
    }
    const sc::ScenarioSpec spec = sc::parse_spec(spec_doc);
    bool complete = !payloads.empty() && r.cell_ns.size() == payloads.size();
    for (const auto& p : payloads) complete = complete && p.has_value();
    if (!complete) throw std::runtime_error("cells missing");
    const std::string served = json::dump(report);
    if (json::dump(sc::build_report(spec, sc::plan_scenario(spec), payloads)) != served) {
      throw std::runtime_error("served report differs from its streamed cells");
    }
    r.report_digest = digest(served);
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

/// What one tenant's requests add up to: latencies, failures, and (traced)
/// the client-side spans.
struct TenantLog {
  std::vector<double> done_ms;
  std::vector<double> ttfc_ms;
  std::vector<double> accept_ms;
  std::vector<double> gap_ms;
  std::vector<double> tail_ms;
  std::string first_digest;
  Tally tally;
  std::vector<SpanRecord> spans;

  /// Fold one request in; `expected_digest` non-empty = the report it must
  /// reproduce (the warm tenant), and then every cell must be a hit.
  void add(const Request& r, const std::string& expected_digest, bool traced) {
    std::string tag(1, r.tenant);
    tag += std::to_string(r.seq) + ": ";
    tally.check(r.ok(), tag + r.error);
    if (!r.ok()) return;
    if (!expected_digest.empty()) {
      tally.check(r.all_hits, tag + "warm request computed cells");
      tally.check(r.report_digest == expected_digest, tag + "warm report digest differs");
    }
    if (first_digest.empty()) first_digest = r.report_digest;
    done_ms.push_back(1e-6 * static_cast<double>(r.done_ns - r.sent_ns));
    ttfc_ms.push_back(1e-6 * static_cast<double>(r.cell_ns.front() - r.sent_ns));
    accept_ms.push_back(1e-6 * static_cast<double>(r.accepted_ns - r.sent_ns));
    tail_ms.push_back(1e-6 * static_cast<double>(r.done_ns - r.cell_ns.back()));
    if (!traced) return;
    for (std::size_t i = 1; i < r.cell_ns.size(); ++i) {
      gap_ms.push_back(1e-6 * static_cast<double>(r.cell_ns[i] - r.cell_ns[i - 1]));
    }
    const auto thread = static_cast<std::uint32_t>(r.tenant - 'A');
    const std::uint64_t request = (thread + 1ULL) * 1000000ULL + r.seq;
    const auto span = [&](const char* name, std::int64_t from, std::int64_t to,
                          std::uint32_t parent) {
      // Ids are unique per tenant; the tenant index is the top byte.
      const std::uint32_t id = (thread << 24) | static_cast<std::uint32_t>(spans.size() + 1);
      spans.push_back({name, from, to, id, parent, thread, request});
      return id;
    };
    const std::uint32_t root = span("service.request", r.sent_ns, r.done_ns, 0);
    span("service.accept", r.sent_ns, r.accepted_ns, root);
    span("service.stream", r.cell_ns.front(), r.cell_ns.back(), root);
    span("service.tail", r.cell_ns.back(), r.done_ns, root);
  }
};

svc::UnixStream connect_tenant() {
  svc::UnixStream conn = svc::UnixStream::connect(kSocket);
  std::string hello;
  if (conn.read_line(hello, kTimeoutMs) != svc::UnixStream::ReadStatus::kLine ||
      svc::event_type(json::parse(hello)) != "hello") {
    throw std::runtime_error("served-mix: no hello from the service");
  }
  return conn;
}

/// The tenants' specs: request k of A and B has fresh seeds, C repeats one.
json::JsonValue big_doc(const ChildOptions& o, std::uint64_t k) {
  const std::uint64_t dies = o.quick ? 64 : 256;
  return served_yield_doc(o.seed + 100000 + k * dies, dies);
}
json::JsonValue small_doc(const ChildOptions& o, std::uint64_t k) {
  return smoke_doc("served_small", o.seed + 200000 + 2 * k);
}
json::JsonValue hit_doc(const ChildOptions& o) { return smoke_doc("served_hit", o.seed); }

/// One window of the mix: what each tenant's requests added up to, and the
/// service's counters around it.
struct Mix {
  TenantLog a;
  TenantLog b;
  TenantLog c;
  double window_s = 0.0;
  svc::ServiceCounters before;
  svc::ServiceCounters after;
};

/// Run the three tenants for `window` seconds. A's and B's request k uses
/// seeds of request `first + k`, so every window's requests are cold.
Mix run_mix(svc::ScenarioService& service, std::vector<svc::UnixStream>& conns,
            const ChildOptions& o, double window, std::uint64_t first,
            const std::string& hit_digest) {
  const std::size_t min_big = o.quick ? 2 : 3;
  const std::size_t min_small = o.quick ? 4 : 1;
  Mix mix;
  std::atomic<bool> a_done{false};
  mix.before = service.counters();
  const bool traced = tracing();
  const auto start = Clock::now();
  {
    // A tenant stops at its first failed request: its connection may be
    // gone, and the failure is already counted.
    std::jthread tenant_a([&] {
      for (std::uint64_t k = 0; k < min_big || seconds_since(start) < window; ++k) {
        const Request r = issue(conns[0], 'A', first + k, big_doc(o, first + k));
        mix.a.add(r, "", traced);
        if (!r.ok()) break;
      }
      a_done.store(true);
    });
    std::jthread tenant_b([&] {
      for (std::uint64_t k = 0; k < min_small || !a_done.load(); ++k) {
        const Request r = issue(conns[1], 'B', first + k, small_doc(o, first + k));
        mix.b.add(r, "", traced);
        if (!r.ok()) break;
      }
    });
    std::jthread tenant_c([&] {
      const json::JsonValue doc = hit_doc(o);
      for (std::uint64_t k = 1; k <= min_small || !a_done.load(); ++k) {
        const Request r = issue(conns[2], 'C', first + k, doc);
        mix.c.add(r, hit_digest, traced);
        if (!r.ok()) break;
      }
    });
  }
  mix.window_s = seconds_since(start);
  mix.after = service.counters();
  return mix;
}

}  // namespace

json::JsonValue run_served_mix(const ChildOptions& o) {
  svc::ServiceOptions service_options;
  service_options.socket_path = kSocket;
  service_options.cache_dir = "svc-cache";
  svc::ScenarioService service(service_options);
  service.start();
  (void)adc::runtime::global_pool();
  std::vector<svc::UnixStream> conns;
  for (int i = 0; i < 3; ++i) conns.push_back(connect_tenant());
  signal_ready(o.ready_fd);
  if (o.setup_only) {
    conns.clear();
    service.stop();
    return json::JsonValue::object();
  }

  Tally tally;
  const Request warmup = issue(conns[2], 'C', 0, hit_doc(o));
  tally.check(warmup.ok(), "pre-warm request failed: " + warmup.error);
  // A traced run splits its window: an untraced half, then a traced one,
  // so the tracing overhead is measured in one stretch of the machine's drift.
  const double window = o.traced ? window_seconds(o) / 2.0 : window_seconds(o);
  std::optional<Mix> untraced;
  if (o.traced) untraced = run_mix(service, conns, o, window, 0, warmup.report_digest);
  set_tracing(o.traced);
  const Mix mix =
      run_mix(service, conns, o, window, o.traced ? kSecondWindow : 0, warmup.report_digest);
  set_tracing(false);
  conns.clear();
  service.stop();

  // The first request of each tenant must be byte-identical to
  // ScenarioRunner::run of the same spec.
  const Mix& first = untraced ? *untraced : mix;
  const std::pair<const TenantLog*, json::JsonValue> firsts[] = {
      {&first.a, big_doc(o, 0)}, {&first.b, small_doc(o, 0)}, {&first.c, hit_doc(o)}};
  for (const auto& [log, doc] : firsts) {
    sc::RunOptions reference;
    reference.cache_dir = "ref-cache";
    reference.threads = o.threads;
    const auto ref = sc::ScenarioRunner(reference).run(sc::parse_spec(doc));
    tally.check(digest(json::dump(ref.report)) == log->first_digest,
                "served " + ref.report.find("scenario")->as_string() +
                    " report differs from ScenarioRunner");
  }
  std::vector<const Mix*> mixes{&mix};
  if (untraced) mixes.push_back(&*untraced);
  for (const Mix* m : mixes) {
    for (const TenantLog* log : {&m->a, &m->b, &m->c}) {
      tally.attempted += log->tally.attempted;
      tally.failed += log->tally.failed;
      for (const auto& f : log->tally.failures.items()) {
        if (tally.failures.items().size() < 20) tally.failures.push_back(f);
      }
    }
  }

  json::JsonValue out = json::JsonValue::object();
  out.set("request_ms", to_array(mix.b.done_ms));
  auto details = json::JsonValue::object();
  details.set("ttfc_ms", to_array(mix.b.ttfc_ms));
  details.set("hit_done_ms", to_array(mix.c.done_ms));
  details.set("big_done_ms", to_array(mix.a.done_ms));
  out.set("details", std::move(details));
  if (o.traced) {
    std::vector<double> accept_ms;
    std::vector<double> gap_ms;
    std::vector<double> tail_ms;
    std::vector<SpanRecord> spans;
    for (const TenantLog* log : {&mix.a, &mix.b, &mix.c}) {
      accept_ms.insert(accept_ms.end(), log->accept_ms.begin(), log->accept_ms.end());
      gap_ms.insert(gap_ms.end(), log->gap_ms.begin(), log->gap_ms.end());
      tail_ms.insert(tail_ms.end(), log->tail_ms.begin(), log->tail_ms.end());
      spans.insert(spans.end(), log->spans.begin(), log->spans.end());
    }
    const auto ms_percentile = [](const std::vector<double>& v, double p) {
      return percentile_resolved(v.size(), p) ? percentile(v, p) : 0.0;
    };
    LayerValues l;
    l["service.accept_ms_p50"] = ms_percentile(accept_ms, 0.5);
    l["service.cell_gap_ms_p50"] = ms_percentile(gap_ms, 0.5);
    l["service.cell_gap_ms_p90"] = ms_percentile(gap_ms, 0.9);
    l["service.tail_ms_p50"] = ms_percentile(tail_ms, 0.5);
    l["service.cells_hit"] = static_cast<double>(mix.after.cells_hit - mix.before.cells_hit);
    l["service.cells_deduped"] =
        static_cast<double>(mix.after.cells_deduped - mix.before.cells_deduped);
    l["service.cells_computed"] =
        static_cast<double>(mix.after.cells_computed - mix.before.cells_computed);
    double big_busy_ms = 0.0;
    for (const double ms : mix.a.done_ms) big_busy_ms += ms;
    l["trace.coverage"] = 1e-3 * big_busy_ms / mix.window_s;
    std::vector<LayerValues> reps{std::move(l)};
    add_fill_metrics(reps, big_doc(o, 0));
    json::JsonValue layers = median_layers(reps);
    layers.set("trace.overhead_frac", summarize(mix.b.done_ms).median /
                                          summarize(untraced->b.done_ms).median -
                                          1.0);
    out.set("layers", std::move(layers));
    write_file("spans.json", spans_json(spans));
  }
  tally.write(out);
  return out;
}

}  // namespace adc_bench
