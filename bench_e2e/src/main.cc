// bench_e2e, the end-to-end benchmark program. Normally started by
// bench_e2e/run.py, which builds it, prepares the per-build artifacts and
// relays the result line:
//
//   bench_e2e --prepare DIR
//   bench_e2e --workload online_zipf|bulk_annotate|routed_shards
//             --seed N --seconds S --trace 0|1 --artifacts DIR --work-dir DIR
//             [--trace-out FILE]
//
// The last stdout line is the result: {"correct", "attempted", "failed",
// "metrics"} with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). The line before it is `provenance: {...}`, and with
// --trace 1 the line `e2e: {...}` carries the traced run's own end-to-end
// metrics (run.py derives trace.overhead_pct from them). A failed
// correctness check or an invalid run exits 1 with no result line.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "harness.h"
#include "trace.h"
#include "workloads.h"

using namespace emblookup::bench_e2e;

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --prepare DIR\n"
               "       bench_e2e --workload W --seed N --seconds S --trace 0|1"
               " --artifacts DIR --work-dir DIR [--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    flags[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 == 0) return Usage();
  if (flags.count("prepare")) return Prepare(flags["prepare"]);
  for (const char* required :
       {"workload", "seed", "seconds", "trace", "artifacts", "work-dir"}) {
    if (!flags.count(required)) return Usage();
  }
  RunConfig cfg;
  cfg.workload = flags["workload"];
  cfg.seed = std::strtoull(flags["seed"].c_str(), nullptr, 10);
  cfg.seconds = std::atof(flags["seconds"].c_str());
  cfg.trace = flags["trace"] == "1";
  cfg.art.dir = flags["artifacts"];
  cfg.work_dir = flags["work-dir"];
  if (cfg.seconds <= 0.0) return Usage();
  ::mkdir(cfg.work_dir.c_str(), 0755);
  Tracer::Enable(cfg.trace);

  RunOutput out;
  if (cfg.workload == "online_zipf") {
    out = RunOnlineZipf(cfg);
  } else if (cfg.workload == "bulk_annotate") {
    out = RunBulkAnnotate(cfg);
  } else if (cfg.workload == "routed_shards") {
    out = RunRoutedShards(cfg);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", cfg.workload.c_str());
    return 2;
  }

  Provenance prov{cfg.workload, cfg.seed, cfg.seconds, cfg.trace,
                  cfg.work_dir};
  if (cfg.trace) {
    out.layer.Set("trace.spans",
                  static_cast<double>(Tracer::Snapshot().size()), "count");
    const std::string path = flags.count("trace-out")
                                 ? flags["trace-out"]
                                 : cfg.work_dir + "/trace.json";
    if (!Tracer::WriteJson(path, prov.Json())) {
      FailRun("cannot write trace file " + path);
    }
    std::printf("trace: %s\n", path.c_str());
    std::printf("e2e: %s\n", out.e2e.Json().c_str());
  }
  std::printf("provenance: %s\n", prov.Json().c_str());
  std::printf("{\"correct\": true, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed),
              (cfg.trace ? out.layer : out.e2e).Json().c_str());
  std::fflush(stdout);
  // Every server, router and worker thread has been stopped and joined by
  // the workload's destructors; skip static teardown of the library.
  std::_Exit(0);
}
