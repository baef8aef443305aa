// Shared plumbing of the end-to-end benchmark: clocks, sample statistics,
// the metric sink that becomes the result line, correctness failure, and
// the seeded inputs every workload draws from.
#ifndef EMBLOOKUP_BENCH_E2E_HARNESS_H_
#define EMBLOOKUP_BENCH_E2E_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/emblookup.h"
#include "kg/knowledge_graph.h"

namespace emblookup::bench_e2e {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// Exact percentile (linear interpolation between order statistics) over
/// a copy of `v`; 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
double Median(std::vector<double> v);

/// Prints `what` to stderr and ends the process with exit code 1 without
/// printing a result line: a failed correctness check or an invalid run
/// must never turn into a number.
[[noreturn]] void FailRun(const std::string& what);

/// Ordered metric sink; the last stdout line is built from it.
class MetricSink {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// `{"name": {"value": v, "unit": u}, ...}` with full precision.
  std::string Json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Peak resident set of this process, MiB (getrusage ru_maxrss).
double PeakRssMb();

/// Where the per-build trained artifacts live and how they were made.
struct Artifacts {
  std::string dir;
  std::string catalog_tsv() const { return dir + "/catalog.tsv"; }
  std::string small_catalog_tsv() const { return dir + "/small_catalog.tsv"; }
  std::string encoder_path() const { return dir + "/encoder.bin"; }
  std::string semantic_path() const { return dir + "/semantic.ft"; }
  std::string snapshot_path() const { return dir + "/catalog_pq.snap"; }
};

/// Fixed sizes of the one-time training and of the served catalog. The
/// workload seed never changes them, so every run of a build serves the
/// same model and catalog; only the traffic is drawn from the seed.
inline constexpr int64_t kTrainEntities = 1500;
inline constexpr uint64_t kTrainSeed = 2022;
inline constexpr int64_t kCatalogEntities = 20000;
/// bulk_annotate and routed_shards serve a smaller catalog drawn from the
/// same seed. Their flat indexes carry a row map (alias rows, shard
/// exclusions), so every query ranks and deduplicates all of its rows; at
/// 20,000 entities that is a 25 MB (bulk) or 10,000-row-per-shard scan per
/// query whose time tracks other tenants' memory traffic on a shared host
/// (runs swung 15-40%), while at 4,000 entities the rows stay in cache
/// and runs repeat within a few percent.
inline constexpr int64_t kSmallCatalogEntities = 4000;
inline constexpr uint64_t kCatalogSeed = 1234;
inline constexpr int64_t kTopK = 10;

/// The encoder/training options shared by training and every load.
core::EmbLookupOptions ModelOptions();

/// One-time per-build preparation: trains the encoder and the fastText
/// branch on a kTrainEntities graph, writes the catalog TSV and the PQ
/// serving snapshot of the online workload. Prints timings to stdout.
int Prepare(const std::string& dir);

/// Loads the fastText branch saved by Prepare.
std::shared_ptr<embed::FastTextModel> LoadSemantic(const Artifacts& art);

/// One lookup the traffic generator sends, with the entity that produced
/// the mention (for hit@10).
struct Query {
  std::string text;
  kg::EntityId truth = kg::kInvalidEntity;
};

/// Share of mentions rendered as an alias: the share the repository's
/// serving load generators use (bench_serve, bench_update, the CLI).
inline constexpr double kAliasShare = 0.3;
/// Share of mentions corrupted with kg::RandomNoise (the paper's noise
/// families): the InjectCellNoise fraction of the noisy table cells.
inline constexpr double kNoiseShare = 0.5;

/// Seeded mention stream over a catalog: entities drawn Zipf(`zipf_s`)
/// over a popularity order fixed by kCatalogSeed, so which entities are
/// hot is a property of the catalog and `seed` draws only the sequence
/// (uniformly when `zipf_s` is 0); each
/// draw renders as a uniformly chosen alias (kAliasShare, when the entity
/// has one) or the label, then is noised with probability kNoiseShare.
class MentionStream {
 public:
  MentionStream(const kg::KnowledgeGraph& graph, uint64_t seed,
                double zipf_s = 1.1);
  Query Next();

 private:
  const kg::KnowledgeGraph* graph_;
  Rng rng_;
  double zipf_s_;
  std::vector<kg::EntityId> by_popularity_;
};

/// A seeded Poisson arrival schedule at `rate_per_s` over `seconds`: due
/// times in µs from the phase start.
std::vector<double> PoissonSchedule(double rate_per_s, double seconds,
                                    Rng* rng);

/// One catalog mutation of the writes phase.
struct Mutation {
  enum Kind { kAdd, kAlias, kRemove } kind = kAdd;
  std::string label;
  std::string qid;
  std::vector<std::string> aliases;
  kg::EntityId entity = kg::kInvalidEntity;
};
/// A fixed-count stream of mutations (add, alias update and remove, in
/// turn) drawn from the seed; updates and removes touch distinct entities
/// of `eligible`.
std::vector<Mutation> MutationStream(const kg::KnowledgeGraph& graph,
                                     int count, uint64_t seed,
                                     const std::vector<kg::EntityId>& eligible);

/// Run-wide facts printed with every result (run.py adds the tracing
/// overhead, which takes a traced and an untraced run to know).
struct Provenance {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string wal_dir;
  std::string Json() const;
};

}  // namespace emblookup::bench_e2e

#endif  // EMBLOOKUP_BENCH_E2E_HARNESS_H_
