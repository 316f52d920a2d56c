/// \file trace.hpp
/// Spans recorded by the benchmark around its calls into each layer.
///
/// A span has a name, a start and an end (ns on the steady clock), the span
/// that caused it, and a request id. Spans are appended to per-thread
/// vectors and collected once the traced work has finished, so recording
/// takes no lock. The layer names are the repository's module names
/// ("cache.load", "batch.convert", ...), which is how per-layer metrics are
/// keyed. With tracing disabled, a Span reads no clock and records nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace adc_bench {

struct SpanRecord {
  const char* name = "";  ///< a string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = a root span
  std::uint32_t thread = 0;
  std::uint64_t request = 0;
};

/// Sentinel parent: nest under the calling thread's innermost open span.
inline constexpr std::uint32_t kInheritParent = 0xFFFFFFFFu;

void set_tracing(bool enabled);
[[nodiscard]] bool tracing();

/// Every span recorded since the last call, from all threads. The caller
/// guarantees no thread is recording (the traced work has returned).
[[nodiscard]] std::vector<SpanRecord> drain_spans();

/// RAII span. `parent` crosses threads explicitly (a pool job names the
/// span of the call that submitted it); by default it nests.
class Span {
 public:
  explicit Span(const char* name, std::uint32_t parent = kInheritParent,
                std::uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint32_t id() const { return id_; }

 private:
  std::uint32_t id_ = 0;  ///< 0 when tracing is off
};

/// Per-name totals of one set of spans. Self time is a span's duration
/// minus the part of it its child spans cover.
struct SpanTotals {
  double self_s = 0.0;
  std::vector<double> durations_s;
};
[[nodiscard]] std::map<std::string, SpanTotals> aggregate(const std::vector<SpanRecord>& spans);

/// Spans as a JSON array (one object per span, times in ns).
[[nodiscard]] std::string spans_json(const std::vector<SpanRecord>& spans);

}  // namespace adc_bench
