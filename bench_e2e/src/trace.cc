#include "trace.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <mutex>

namespace emblookup::bench_e2e {
namespace {

std::atomic<bool> g_enabled{false};
std::mutex g_mu;
std::vector<SpanRecord>* g_spans = new std::vector<SpanRecord>();  // Leaked.

// Length of the union of [s, e) intervals, each clipped to [lo, hi).
double CoveredMicros(std::vector<std::pair<Clock::time_point,
                                           Clock::time_point>> iv,
                     Clock::time_point lo, Clock::time_point hi) {
  std::sort(iv.begin(), iv.end());
  double covered = 0.0;
  Clock::time_point cur_s{}, cur_e{};
  bool open = false;
  for (auto [s, e] : iv) {
    s = std::max(s, lo);
    e = std::min(e, hi);
    if (e <= s) continue;
    if (open && s <= cur_e) {
      cur_e = std::max(cur_e, e);
      continue;
    }
    if (open) covered += MicrosBetween(cur_s, cur_e);
    cur_s = s;
    cur_e = e;
    open = true;
  }
  if (open) covered += MicrosBetween(cur_s, cur_e);
  return covered;
}

}  // namespace

void Tracer::Enable(bool on) { g_enabled.store(on); }
bool Tracer::enabled() { return g_enabled.load(std::memory_order_relaxed); }

int32_t Tracer::Add(const char* name, Clock::time_point start,
                    Clock::time_point end, int32_t parent, uint64_t request) {
  if (!enabled()) return -1;
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans->push_back({name, start, end, parent, request});
  return static_cast<int32_t>(g_spans->size() - 1);
}

int32_t Tracer::Open(const char* name, int32_t parent, uint64_t request) {
  if (!enabled()) return -1;
  const auto now = Clock::now();
  return Add(name, now, now, parent, request);
}

void Tracer::Close(int32_t index) {
  if (index < 0) return;
  const auto now = Clock::now();
  std::lock_guard<std::mutex> lock(g_mu);
  (*g_spans)[static_cast<size_t>(index)].end = now;
}

std::vector<SpanRecord> Tracer::Snapshot() {
  std::lock_guard<std::mutex> lock(g_mu);
  return *g_spans;
}

std::map<std::string, SpanSummary> Tracer::Summarize(
    const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].push_back({s.start, s.end});
    }
  }
  std::map<std::string, SpanSummary> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const double dur = MicrosBetween(s.start, s.end);
    const double self =
        dur - CoveredMicros(std::move(children[i]), s.start, s.end);
    const std::string name = s.name;
    SpanSummary& by_name = out[name];
    by_name.count += 1;
    by_name.total_us += dur;
    by_name.self_us += self;
    SpanSummary& by_module = out["module:" + name.substr(0, name.find('.'))];
    by_module.count += 1;
    by_module.total_us += dur;
    by_module.self_us += self;
  }
  return out;
}

bool Tracer::WriteJson(const std::string& path,
                       const std::string& provenance_json) {
  const std::vector<SpanRecord> spans = Snapshot();
  std::ofstream out(path);
  if (!out) return false;
  out.precision(12);
  Clock::time_point t0 = spans.empty() ? Clock::now() : spans[0].start;
  for (const SpanRecord& s : spans) t0 = std::min(t0, s.start);
  out << "{\"provenance\": " << provenance_json << ",\n\"summary\": {";
  bool first = true;
  for (const auto& [name, s] : Summarize(spans)) {
    out << (first ? "\n" : ",\n") << "  \"" << name << "\": {\"count\": "
        << s.count << ", \"total_us\": " << s.total_us
        << ", \"self_us\": " << s.self_us << "}";
    first = false;
  }
  out << "},\n\"spans\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \""
        << s.name << "\", \"start_us\": " << MicrosBetween(t0, s.start)
        << ", \"end_us\": " << MicrosBetween(t0, s.end)
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << "}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace emblookup::bench_e2e
