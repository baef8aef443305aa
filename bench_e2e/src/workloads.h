// The three workloads. Each sets up its deployment several times (the
// median is setup_s), runs three phases of seeded traffic (low, high,
// writes), checks its outputs against an independent reference, and
// fills both metric sinks: end-to-end metrics from what a client saw and
// per-layer metrics from the library's public stats and the benchmark's
// own spans.
#ifndef EMBLOOKUP_BENCH_E2E_WORKLOADS_H_
#define EMBLOOKUP_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness.h"

namespace emblookup::bench_e2e {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 12.0;
  bool trace = false;
  Artifacts art;
  std::string work_dir;  ///< Scratch space for WAL files.
};

struct RunOutput {
  MetricSink e2e;
  MetricSink layer;
  int64_t attempted = 0;
  int64_t failed = 0;
};

RunOutput RunOnlineZipf(const RunConfig& cfg);
RunOutput RunBulkAnnotate(const RunConfig& cfg);
RunOutput RunRoutedShards(const RunConfig& cfg);

}  // namespace emblookup::bench_e2e

#endif  // EMBLOOKUP_BENCH_E2E_WORKLOADS_H_
