// Span recorder for the traced run. Spans are taken from the benchmark's
// own files around calls into each layer's public API (net, serve, core,
// ann, update, store, cluster); nothing inside the library is touched.
// They are kept in memory and written out once, when the run ends.
#ifndef EMBLOOKUP_BENCH_E2E_TRACE_H_
#define EMBLOOKUP_BENCH_E2E_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"

namespace emblookup::bench_e2e {

struct SpanRecord {
  const char* name = "";  ///< "<module>.<call>", e.g. "serve.submit".
  Clock::time_point start;
  Clock::time_point end;
  int32_t parent = -1;    ///< Index of the parent span; -1 = root.
  uint64_t request = 0;   ///< Request id shared by one request's spans.
};

/// Per span name: how many, total and self time. Self time is the span's
/// duration minus the part of it that its child spans cover.
struct SpanSummary {
  int64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

/// Process-wide, mutex-guarded span store. Disabled (every call a no-op
/// returning -1) unless the run is traced.
class Tracer {
 public:
  static void Enable(bool on);
  static bool enabled();
  /// Records a finished span; returns its index (for children) or -1.
  static int32_t Add(const char* name, Clock::time_point start,
                     Clock::time_point end, int32_t parent = -1,
                     uint64_t request = 0);
  /// Opens a span whose end is filled by Close(); returns its index or -1.
  static int32_t Open(const char* name, int32_t parent = -1,
                      uint64_t request = 0);
  static void Close(int32_t index);
  static std::vector<SpanRecord> Snapshot();
  /// Summaries keyed by span name, and self time summed per module (the
  /// name's prefix before the first '.').
  static std::map<std::string, SpanSummary> Summarize(
      const std::vector<SpanRecord>& spans);
  /// Writes every span plus the summaries as JSON to `path`.
  static bool WriteJson(const std::string& path,
                        const std::string& provenance_json);
};

/// RAII span around one layer call.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int32_t parent = -1,
                      uint64_t request = 0)
      : index_(Tracer::Open(name, parent, request)) {}
  ~ScopedSpan() { Tracer::Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t index() const { return index_; }

 private:
  int32_t index_;
};

}  // namespace emblookup::bench_e2e

#endif  // EMBLOOKUP_BENCH_E2E_TRACE_H_
