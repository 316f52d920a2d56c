#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <sstream>
#include <utility>

#include "bench_util.hpp"

namespace adc_bench {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint32_t> g_next_id{1};

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::size_t> open;  ///< indices into spans, innermost last
};

/// Buffers outlive their threads (pool workers are never joined before a
/// drain), so the registry owns them.
std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_registry;

ThreadBuffer& local_buffer() {
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    auto owned = std::make_unique<ThreadBuffer>();
    owned->spans.reserve(1 << 14);
    owned->open.reserve(16);
    const std::lock_guard<std::mutex> lock(g_registry_mutex);
    owned->thread = static_cast<std::uint32_t>(g_registry.size());
    buffer = owned.get();
    g_registry.push_back(std::move(owned));
  }
  return *buffer;
}

}  // namespace

void set_tracing(bool enabled) { g_enabled.store(enabled, std::memory_order_relaxed); }
bool tracing() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<SpanRecord> drain_spans() {
  std::vector<SpanRecord> all;
  const std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (auto& buffer : g_registry) {
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
    buffer->open.clear();
  }
  return all;
}

Span::Span(const char* name, std::uint32_t parent, std::uint64_t request) {
  if (!tracing()) return;
  ThreadBuffer& buffer = local_buffer();
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  if (parent == kInheritParent) {
    parent = buffer.open.empty() ? 0 : buffer.spans[buffer.open.back()].id;
  }
  buffer.open.push_back(buffer.spans.size());
  buffer.spans.push_back({name, now_ns(), 0, id_, parent, buffer.thread, request});
}

Span::~Span() {
  if (id_ == 0) return;
  ThreadBuffer& buffer = local_buffer();
  buffer.spans[buffer.open.back()].end_ns = now_ns();
  buffer.open.pop_back();
}

std::map<std::string, SpanTotals> aggregate(const std::vector<SpanRecord>& spans) {
  std::map<std::uint32_t, std::vector<std::pair<std::int64_t, std::int64_t>>> children;
  for (const auto& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::string, SpanTotals> totals;
  for (const auto& s : spans) {
    std::int64_t covered = 0;
    if (const auto found = children.find(s.id); found != children.end()) {
      auto intervals = found->second;
      std::sort(intervals.begin(), intervals.end());
      std::int64_t reach = s.start_ns;
      for (auto [lo, hi] : intervals) {
        lo = std::max(lo, reach);
        hi = std::min(hi, s.end_ns);
        if (hi > lo) {
          covered += hi - lo;
          reach = hi;
        }
      }
    }
    const double duration = 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
    SpanTotals& t = totals[s.name];
    t.self_s += duration - 1e-9 * static_cast<double>(covered);
    t.durations_s.push_back(duration);
  }
  return totals;
}

std::string spans_json(const std::vector<SpanRecord>& spans) {
  std::ostringstream out;
  out << "[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    out << (i == 0 ? "\n" : ",\n") << R"(  {"name": ")" << s.name << R"(", "start_ns": )"
        << s.start_ns << R"(, "end_ns": )" << s.end_ns << R"(, "id": )" << s.id
        << R"(, "parent": )" << s.parent << R"(, "thread": )" << s.thread
        << R"(, "request": )" << s.request << "}";
  }
  out << "\n]";
  return out.str();
}

}  // namespace adc_bench
