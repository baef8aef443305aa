#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <ctime>
#include <cstdio>
#include <cstring>
#include <future>
#include <limits>
#include <tuple>
#include <thread>
#include <unordered_set>

#include "ann/kernels.h"
#include "cluster/router.h"
#include "cluster/shard_map.h"
#include "kg/noise.h"
#include "kg/tabular.h"
#include "loadgen.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/trace.h"
#include "serve/lookup_server.h"
#include "tensor/tensor.h"
#include "trace.h"
#include "update/updater.h"

namespace emblookup::bench_e2e {
namespace {

// ---- Calibrated constants (4-core x86-64 host; see bench_e2e/README.md).
constexpr int kSetupReps = 5;       ///< Set-ups per run; setup_s is the median.
constexpr double kLowRate = 1000.0;   ///< online_zipf low/writes, req/s.
constexpr double kHighRate = 4000.0;  ///< online_zipf high, req/s.
constexpr size_t kEncodeCacheEntries = 1 << 16;  ///< online_zipf only.
constexpr int kWarmupLookups = 50;
constexpr int kMutations = 300;     ///< Per writes phase, fixed.
constexpr int kCheckSample = 200;   ///< Queries per correctness check.
constexpr int kQualitySample = 2000;  ///< Uniform mentions for hit/recall.
constexpr int kProbeSample = 32;    ///< Queries per per-layer probe round.
constexpr int kProbeRounds = 5;
constexpr int kBulkTableCells = 16;  ///< bulk_annotate low/writes: one table.
constexpr double kBulkPaceUs = 200000.0;  ///< ...started every 200 ms.
constexpr int kBulkRequestCells = 32;  ///< bulk_annotate high: two tables.
constexpr int kShards = 2;
/// bulk_annotate and routed_shards alternate low and high this many times.
constexpr int kRounds = 4;
/// Windows per phase whose median p90 is the gated p90.
constexpr size_t kTailWindows = 4;
/// Generator validity: a phase whose sends ran this late marks the run
/// invalid. Host contention alone made up to ~6% of sends over 1 ms late
/// with lags near 20 ms; a generator that cannot keep its schedule falls
/// further behind with every send, far past these limits.
constexpr double kMaxLateShare = 0.2;
constexpr double kMaxLagUs = 250000.0;

constexpr obs::Stage kStages[] = {
    obs::Stage::kQueueWait,   obs::Stage::kEncode,
    obs::Stage::kMainScan,    obs::Stage::kDeltaSearch,
    obs::Stage::kTopKMerge,   obs::Stage::kNetDispatch,
    obs::Stage::kRouteFanout, obs::Stage::kShardRpc,
    obs::Stage::kWalAppend,   obs::Stage::kDeltaApply,
    obs::Stage::kCompaction};

std::unique_ptr<kg::KnowledgeGraph> LoadCatalog(const std::string& tsv) {
  auto loaded = kg::KnowledgeGraph::LoadTsv(tsv);
  if (!loaded.ok()) FailRun("catalog: " + loaded.status().ToString());
  return std::make_unique<kg::KnowledgeGraph>(std::move(loaded).ValueOrDie());
}

core::EmbLookupOptions LoadOptions(const Artifacts& art,
                                   core::IndexKind kind, bool aliases) {
  core::EmbLookupOptions o = ModelOptions();
  o.pretrained_semantic = LoadSemantic(art);
  o.index.kind = kind;
  o.index.index_aliases = aliases;
  return o;
}

std::unique_ptr<core::EmbLookup> Unwrap(
    Result<std::unique_ptr<core::EmbLookup>> r, const char* what) {
  if (!r.ok()) FailRun(std::string(what) + ": " + r.status().ToString());
  return std::move(r).ValueOrDie();
}

std::unique_ptr<update::IndexUpdater> OpenUpdater(core::EmbLookup* el,
                                                  kg::KnowledgeGraph* graph,
                                                  const std::string& wal) {
  ::unlink(wal.c_str());
  update::UpdaterOptions options;  // Durable default: fsync_wal = true.
  options.wal_path = wal;
  auto opened = update::IndexUpdater::Open(el, graph, options);
  if (!opened.ok()) FailRun("updater: " + opened.status().ToString());
  return std::move(opened).ValueOrDie();
}

std::unique_ptr<net::NetServer> StartNet(serve::LookupServer* server) {
  auto net = std::make_unique<net::NetServer>();
  const Status s = net->Start(server, 0);
  if (!s.ok()) FailRun("net server: " + s.ToString());
  return net;
}

// Sets up `make(rep)` kSetupReps times, tearing the previous deployment
// down first; returns the last one and the median set-up time.
template <class D, class Make>
std::unique_ptr<D> SetupMedian(Make make, double* setup_s) {
  std::vector<double> times;
  std::unique_ptr<D> d;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    d.reset();
    const auto t0 = Clock::now();
    d = make(rep);
    times.push_back(SecondsSince(t0));
  }
  *setup_s = Median(times);
  return d;
}

std::vector<Query> Draw(MentionStream* stream, size_t n) {
  std::vector<Query> out(n);
  for (Query& q : out) q = stream->Next();
  return out;
}

// Warm-up as a client would do it: sequential lookups over the wire.
void WarmRemote(int port, MentionStream* stream) {
  net::RemoteClient client;
  if (!client.Connect("127.0.0.1", port).ok()) FailRun("warm-up connect");
  for (int i = 0; i < kWarmupLookups; ++i) {
    auto r = client.Lookup(stream->Next().text, kTopK);
    if (!r.ok()) FailRun("warm-up lookup: " + r.status().ToString());
  }
}

void CheckGenerator(const PhaseResult& r, const char* phase) {
  const double late_share =
      r.sent == 0 ? 0.0 : static_cast<double>(r.late_sends) / r.sent;
  std::printf("phase %-6s sent %lld ok %lld failed %lld shed %lld | "
              "late sends %lld (%.2f%%) max lag %.0fus\n",
              phase, static_cast<long long>(r.sent),
              static_cast<long long>(r.ok), static_cast<long long>(r.failed),
              static_cast<long long>(r.shed),
              static_cast<long long>(r.late_sends), late_share * 100.0,
              r.max_lag_us);
  if (late_share > kMaxLateShare || r.max_lag_us > kMaxLagUs) {
    FailRun(std::string("generator fell behind in phase ") + phase +
            " — run invalid, not slow");
  }
}

// Distinct mentions answered in some phases: their short results, and
// hit@10 (bulk_annotate's quality figure; its table cells are not skewed
// by a popularity law, so traffic-based counting is fair there).
struct Quality {
  int64_t lookups = 0;
  int64_t hits = 0;
  int64_t short_results = 0;
  std::unordered_set<std::string> seen;
  void Add(const Query& q, const std::vector<int64_t>& ids, bool ok) {
    if (!ok || !seen.insert(q.text).second) return;
    const kg::EntityId truth = q.truth;
    ++lookups;
    if (std::find(ids.begin(), ids.end(), truth) != ids.end()) ++hits;
    if (static_cast<int64_t>(ids.size()) < kTopK) ++short_results;
  }
  void AddPhase(const PhaseResult& r, const std::vector<Query>& queries) {
    for (size_t i = 0; i < r.latency_us.size(); ++i) {
      Add(queries[r.query_index[i]], r.ids[i],
          r.latency_us[i] < kFailedLatencyUs);
    }
  }
  double HitRate() const {
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
  }
};

double Overlap(const std::vector<int64_t>& got,
               const std::vector<int64_t>& exact) {
  if (exact.empty()) return 1.0;
  int64_t n = 0;
  for (int64_t id : exact) {
    if (std::find(got.begin(), got.end(), id) != got.end()) ++n;
  }
  return static_cast<double>(n) / static_cast<double>(exact.size());
}

double MeanOverlap(const std::vector<std::vector<int64_t>>& got,
                   const std::vector<std::vector<int64_t>>& exact) {
  double sum = 0.0;
  for (size_t i = 0; i < got.size(); ++i) sum += Overlap(got[i], exact[i]);
  return got.empty() ? 0.0 : sum / static_cast<double>(got.size());
}

// Share of `sample` whose generating entity is among its answer's ids.
double SampleHitRate(const std::vector<Query>& sample,
               const std::vector<std::vector<int64_t>>& answers) {
  int64_t hits = 0;
  for (size_t i = 0; i < sample.size(); ++i) {
    const auto& ids = answers[i];
    if (std::find(ids.begin(), ids.end(), sample[i].truth) != ids.end()) ++hits;
  }
  return sample.empty() ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(sample.size());
}

// The quality sample: uniformly drawn entities (not the traffic's Zipf
// popularity, whose few hot entities would make the figure swing with
// the seed), same alias and noise mix.
std::vector<Query> UniformSample(const kg::KnowledgeGraph& graph,
                                 uint64_t seed, int n) {
  MentionStream stream(graph, seed ^ 0xC0FFEE, /*zipf_s=*/0.0);
  return Draw(&stream, static_cast<size_t>(n));
}

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  ::clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double HistMeanDiff(const obs::HistogramSnapshot& a,
                    const obs::HistogramSnapshot& b) {
  const uint64_t n = b.total - a.total;
  return n == 0 ? 0.0 : (b.sum - a.sum) / static_cast<double>(n);
}

// Serving-layer metrics of one phase, summed over the servers involved
// and over every Begin/End window the phase ran in.
struct ServeWindow {
  std::vector<serve::MetricsSnapshot> before;
  double wait_sum = 0.0;
  double batch_sum = 0.0;
  uint64_t waits = 0;
  uint64_t batches = 0;
  void Begin(const std::vector<serve::LookupServer*>& servers) {
    before.clear();
    for (auto* s : servers) before.push_back(s->Metrics());
  }
  void End(const std::vector<serve::LookupServer*>& servers) {
    for (size_t i = 0; i < servers.size(); ++i) {
      const serve::MetricsSnapshot after = servers[i]->Metrics();
      waits += after.queue_wait_us.total - before[i].queue_wait_us.total;
      wait_sum += after.queue_wait_us.sum - before[i].queue_wait_us.sum;
      batches += after.batch_size.total - before[i].batch_size.total;
      batch_sum += after.batch_size.sum - before[i].batch_size.sum;
    }
  }
  void Report(const std::string& phase, MetricSink* layer) const {
    const double batch_mean = batches == 0 ? 0.0 : batch_sum / batches;
    layer->Set("serve.queue_wait_us." + phase,
               waits == 0 ? 0.0 : wait_sum / waits, "us");
    layer->Set("serve.batch_size." + phase, batch_mean, "count");
    if (phase == "high") {
      layer->Set(
          "serve.batch_fill.high",
          batch_mean / static_cast<double>(serve::ServerOptions{}.max_batch),
          "ratio");
    }
  }
};

// Appends `r` to `into`.
void Merge(PhaseResult* into, const PhaseResult& r) {
  into->latency_us.insert(into->latency_us.end(), r.latency_us.begin(),
                          r.latency_us.end());
  into->ids.insert(into->ids.end(), r.ids.begin(), r.ids.end());
  into->query_index.insert(into->query_index.end(), r.query_index.begin(),
                           r.query_index.end());
  into->sent += r.sent;
  into->ok += r.ok;
  into->failed += r.failed;
  into->shed += r.shed;
  into->late_sends += r.late_sends;
  into->max_lag_us = std::max(into->max_lag_us, r.max_lag_us);
  into->elapsed_s += r.elapsed_s;
}

void SetServeTotals(const std::vector<serve::LookupServer*>& servers,
                    MetricSink* layer) {
  uint64_t shed = 0, expired = 0, hits = 0, misses = 0;
  uint64_t enc_hits = 0, enc_misses = 0;
  for (auto* s : servers) {
    const serve::MetricsSnapshot m = s->Metrics();
    shed += m.requests_shed;
    expired += m.requests_expired;
    const serve::QueryCacheStats c = s->CacheStats();
    hits += c.hits;
    misses += c.misses;
    const core::EncoderCacheStats e = s->EncodeCacheStats();
    enc_hits += e.hits;
    enc_misses += e.misses;
  }
  layer->Set("serve.shed", static_cast<double>(shed), "count");
  layer->Set("serve.expired", static_cast<double>(expired), "count");
  layer->Set("serve.query_cache.hit_ratio",
             hits + misses == 0 ? 0.0
                                : static_cast<double>(hits) / (hits + misses),
             "ratio");
  layer->Set("core.encode_cache.hit_ratio",
             enc_hits + enc_misses == 0
                 ? 0.0
                 : static_cast<double>(enc_hits) / (enc_hits + enc_misses),
             "ratio");
}

void SetNetTotals(const std::vector<net::NetServer*>& nets,
                  MetricSink* layer) {
  uint64_t rejections = 0, pauses = 0;
  for (auto* n : nets) {
    const net::NetStatsSnapshot s = n->Stats();
    rejections += s.overload_rejections;
    pauses += s.read_pauses;
  }
  layer->Set("net.overload_rejections", static_cast<double>(rejections),
             "count");
  layer->Set("net.read_pauses", static_cast<double>(pauses), "count");
}

void SetStageDiff(const obs::StageMetrics::Snapshot& a,
                  const obs::StageMetrics::Snapshot& b, MetricSink* layer) {
  for (obs::Stage stage : kStages) {
    const size_t i = static_cast<size_t>(stage);
    const std::string name = std::string("stage.") + obs::StageName(stage);
    layer->Set(name + ".count",
               static_cast<double>(b.stages[i].total - a.stages[i].total),
               "count");
    layer->Set(name + ".mean_us", HistMeanDiff(a.stages[i], b.stages[i]),
               "us");
  }
}

// ---- Writes: one fixed-count mutation stream, paced over a window.

struct WriteStats {
  std::vector<double> ack_us;  ///< Every mutation; failed = kFailedLatencyUs.
  std::vector<double> add_us, alias_us, remove_us;
  double compact_s = 0.0;
  int compactions = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
};

// `Target` is serve::LookupServer or update::IndexUpdater: both expose the
// same mutation calls. Mutation i is due at start + i * window / n.
template <class Target>
WriteStats RunWriter(Target* target, const std::vector<Mutation>& muts,
                     Clock::time_point start, double window_s) {
  WriteStats w;
  for (size_t i = 0; i < muts.size(); ++i) {
    std::this_thread::sleep_until(
        start + std::chrono::nanoseconds(static_cast<int64_t>(
                    window_s * 1e9 * static_cast<double>(i) / muts.size())));
    const Mutation& m = muts[i];
    const auto t0 = Clock::now();
    Status s;
    std::vector<double>* by_kind = nullptr;
    switch (m.kind) {
      case Mutation::kAdd: {
        ScopedSpan span("update.add");
        s = target->AddEntity(m.label, m.qid, m.aliases).status();
        by_kind = &w.add_us;
        break;
      }
      case Mutation::kAlias: {
        ScopedSpan span("update.alias");
        s = target->UpdateAliases(m.entity, m.aliases);
        by_kind = &w.alias_us;
        break;
      }
      case Mutation::kRemove: {
        ScopedSpan span("update.remove");
        s = target->RemoveEntity(m.entity);
        by_kind = &w.remove_us;
        break;
      }
    }
    const double us = MicrosBetween(t0, Clock::now());
    ++w.attempted;
    if (s.ok()) {
      w.ack_us.push_back(us);
      by_kind->push_back(us);
    } else {
      ++w.failed;
      w.ack_us.push_back(kFailedLatencyUs);
      std::fprintf(stderr, "mutation %zu failed: %s\n", i,
                   s.ToString().c_str());
    }
  }
  return w;
}

// The stream's one compaction, after the read window: it folds the
// delta into a rebuilt main index at the same point of every run.
template <class Target>
void RunCompaction(Target* target, WriteStats* w) {
  ScopedSpan span("update.compact");
  const auto t0 = Clock::now();
  const Status s = target->Compact();
  w->compact_s = SecondsSince(t0);
  ++w->attempted;
  if (s.ok()) {
    ++w->compactions;
  } else {
    ++w->failed;
    std::fprintf(stderr, "compaction failed: %s\n", s.ToString().c_str());
  }
}

void SetWriteMetrics(const WriteStats& w, const update::UpdaterStats& u,
                     RunOutput* out) {
  // The p90 of an fsync-bound ack swings more between runs than any bound
  // can absorb on a shared disk, so it is a per-layer figure, not gated.
  out->e2e.Set("write_p50_us", Percentile(w.ack_us, 0.5), "us");
  out->layer.Set("update.write_p90_us", Percentile(w.ack_us, 0.9), "us");
  out->layer.Set("update.mutation_us.add", Median(w.add_us), "us");
  out->layer.Set("update.mutation_us.alias", Median(w.alias_us), "us");
  out->layer.Set("update.mutation_us.remove", Median(w.remove_us), "us");
  out->layer.Set("update.compact_s", w.compact_s, "s");
  out->layer.Set("update.compactions", static_cast<double>(w.compactions),
                 "count");
  out->layer.Set("update.delta_rows", static_cast<double>(u.delta_rows),
                 "count");
  out->layer.Set("update.tombstones", static_cast<double>(u.tombstones),
                 "count");
  out->attempted += w.attempted;
  out->failed += w.failed;
  std::printf("writes: %lld mutations (%lld failed), %d compaction(s) "
              "%.3fs, ack p50 %.0fus p90 %.0fus\n",
              static_cast<long long>(w.attempted),
              static_cast<long long>(w.failed), w.compactions, w.compact_s,
              Percentile(w.ack_us, 0.5), Percentile(w.ack_us, 0.9));
}

// Gates p50 and p90; p99 and max are printed as diagnostics only. The
// gated p90 is the median of the p90s of kTailWindows consecutive equal
// shares of the phase's requests (in send order, so about equal spans of
// time): a host stall of a second or two inflates one window's tail, not
// the figure.
void SetPhaseLatency(const std::vector<double>& latency_us,
                     const std::string& phase, RunOutput* out) {
  const double p50 = Percentile(latency_us, 0.5);
  std::vector<double> window_p90;
  for (size_t w = 0; w < kTailWindows; ++w) {
    const auto begin = latency_us.begin() + static_cast<std::ptrdiff_t>(
                                                latency_us.size() * w /
                                                kTailWindows);
    const auto end = latency_us.begin() + static_cast<std::ptrdiff_t>(
                                              latency_us.size() * (w + 1) /
                                              kTailWindows);
    window_p90.push_back(Percentile(std::vector<double>(begin, end), 0.9));
  }
  const double p90 = Median(window_p90);
  out->e2e.Set("p50_us." + phase, p50, "us");
  out->e2e.Set("p90_us." + phase, p90, "us");
  std::printf("latency %-6s n=%zu p50 %.0fus p90 %.0fus (whole phase %.0fus) "
              "| p99 %.0fus max %.0fus (diagnostic)\n",
              phase.c_str(), latency_us.size(), p50, p90,
              Percentile(latency_us, 0.9), Percentile(latency_us, 0.99),
              latency_us.empty()
                  ? 0.0
                  : *std::max_element(latency_us.begin(), latency_us.end()));
}

void CountPhase(const PhaseResult& r, RunOutput* out) {
  out->attempted += r.sent;
  out->failed += r.failed;
}

// Per-layer probe on a query sample against `el`, each layer called
// through its public API: the batched encode, the index search on the
// pre-encoded vectors (EntityIndex::Search, alias dedup included), and
// the whole lookup; per mention, median of kProbeRounds interleaved
// rounds. topk = lookup - encode - search: what the lookup adds around
// them (delta merge, result assembly), so it can read slightly negative
// when that is below the noise.
void ProbeLayers(core::EmbLookup* el, MentionStream* stream,
                 MetricSink* layer) {
  std::vector<std::string> sample;
  for (int i = 0; i < kProbeSample; ++i) sample.push_back(stream->Next().text);
  const double n = static_cast<double>(sample.size());
  const std::shared_ptr<const core::EntityIndex> index = el->IndexSnapshot();
  const int64_t dim = index->dim();
  tensor::NoGradGuard no_grad;
  std::vector<double> encode_us, search_us, lookup_us;
  for (int round = 0; round < kProbeRounds; ++round) {
    tensor::Tensor encoded;
    auto t0 = Clock::now();
    {
      ScopedSpan span("core.encode");
      encoded = el->encoder()->EncodeBatch(sample);
    }
    encode_us.push_back(MicrosBetween(t0, Clock::now()) / n);
    t0 = Clock::now();
    {
      ScopedSpan span("ann.search");
      for (size_t i = 0; i < sample.size(); ++i) {
        if (index->Search(encoded.data() + i * dim, kTopK).empty()) {
          FailRun("index search returned nothing");
        }
      }
    }
    search_us.push_back(MicrosBetween(t0, Clock::now()) / n);
    t0 = Clock::now();
    {
      ScopedSpan span("core.bulk_lookup");
      if (el->BulkLookup(sample, kTopK, /*parallel=*/false).size() !=
          sample.size()) {
        FailRun("BulkLookup lost queries");
      }
    }
    lookup_us.push_back(MicrosBetween(t0, Clock::now()) / n);
  }
  const double encode = Median(encode_us);
  const double search = Median(search_us);
  const double lookup = Median(lookup_us);
  layer->Set("core.encode_us", encode, "us");
  layer->Set("ann.search_us", search, "us");
  layer->Set("core.lookup_us", lookup, "us");
  layer->Set("core.topk_us", lookup - encode - search, "us");
  layer->Set("ann.index_mb",
             static_cast<double>(index->StorageBytes()) / (1 << 20), "MiB");
}

// Every per-layer name this benchmark declares, zero where the workload
// does not exercise the layer (the prediction there is "no change").
void DefaultLayerMetrics(MetricSink* layer) {
  for (const char* phase : {"low", "high"}) {
    layer->Set(std::string("net.overhead_us.") + phase, 0.0, "us");
  }
  for (const char* phase : {"low", "high", "writes"}) {
    layer->Set(std::string("serve.queue_wait_us.") + phase, 0.0, "us");
    layer->Set(std::string("serve.batch_size.") + phase, 0.0, "count");
  }
  layer->Set("serve.batch_fill.high", 0.0, "ratio");
  layer->Set("net.overload_rejections", 0.0, "count");
  layer->Set("net.read_pauses", 0.0, "count");
  layer->Set("serve.shed", 0.0, "count");
  layer->Set("serve.expired", 0.0, "count");
  layer->Set("serve.query_cache.hit_ratio", 0.0, "ratio");
  layer->Set("core.encode_cache.hit_ratio", 0.0, "ratio");
  layer->Set("core.index_build_s", 0.0, "s");
  layer->Set("store.load_ms", 0.0, "ms");
  layer->Set("cluster.route_us", 0.0, "us");
  layer->Set("cluster.encodes_per_request", 0.0, "count");
  layer->Set("cluster.rpc_useful_ratio", 0.0, "ratio");
  layer->Set("cluster.partial_responses", 0.0, "count");
  layer->Set("loadgen.late_sends", 0.0, "count");
  layer->Set("loadgen.max_lag_us", 0.0, "us");
}

void SetGeneratorMetrics(const std::vector<const PhaseResult*>& phases,
                         MetricSink* layer) {
  int64_t late = 0;
  double lag = 0.0;
  for (const PhaseResult* r : phases) {
    late += r->late_sends;
    lag = std::max(lag, r->max_lag_us);
  }
  layer->Set("loadgen.late_sends", static_cast<double>(late), "count");
  layer->Set("loadgen.max_lag_us", lag, "us");
}

void SetCommon(double setup_s, const Quality& quality, double hit_rate,
               double recall, RunOutput* out) {
  out->e2e.Set("setup_s", setup_s, "s");
  out->e2e.Set("peak_rss_mb", PeakRssMb(), "MiB");
  out->e2e.Set("hit_at_10", hit_rate, "ratio");
  out->e2e.Set("recall_at_10", recall, "ratio");
  out->layer.Set("core.short_results",
                 static_cast<double>(quality.short_results), "count");
}

std::vector<kg::EntityId> AllEntities(const kg::KnowledgeGraph& graph) {
  std::vector<kg::EntityId> ids(static_cast<size_t>(graph.num_entities()));
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<kg::EntityId>(i);
  return ids;
}

}  // namespace

// ---------------------------------------------------------------------------
// online_zipf: loopback serving, PQ backend, both caches on, open loop.

RunOutput RunOnlineZipf(const RunConfig& cfg) {
  struct Deployment {
    std::unique_ptr<kg::KnowledgeGraph> graph;
    std::unique_ptr<core::EmbLookup> el;
    std::unique_ptr<update::IndexUpdater> updater;
    std::unique_ptr<serve::LookupServer> server;
    std::unique_ptr<net::NetServer> net;
    double load_ms = 0.0;
  };
  RunOutput out;
  DefaultLayerMetrics(&out.layer);
  double setup_s = 0.0;
  auto dep = SetupMedian<Deployment>(
      [&](int rep) {
        ScopedSpan setup("bench.setup");
        auto d = std::make_unique<Deployment>();
        d->graph = LoadCatalog(cfg.art.catalog_tsv());
        core::EmbLookupOptions o =
            LoadOptions(cfg.art, core::IndexKind::kAuto, false);
        o.encode_cache_entries = kEncodeCacheEntries;
        const auto t0 = Clock::now();
        {
          ScopedSpan span("store.load_snapshot", setup.index());
          d->el = Unwrap(core::EmbLookup::LoadSnapshot(
                             *d->graph, o, cfg.art.snapshot_path()),
                         "snapshot load");
        }
        d->load_ms = MicrosBetween(t0, Clock::now()) / 1e3;
        d->updater = OpenUpdater(
            d->el.get(), d->graph.get(),
            cfg.work_dir + "/online-" + std::to_string(rep) + ".wal");
        d->server = std::make_unique<serve::LookupServer>(d->el.get());
        d->server->AttachUpdater(d->updater.get());
        d->net = StartNet(d->server.get());
        MentionStream warm(*d->graph, kCatalogSeed);
        WarmRemote(d->net->port(), &warm);
        return d;
      },
      &setup_s);
  serve::LookupServer* server = dep->server.get();
  const int port = dep->net->port();
  const double phase_s = cfg.seconds / 3.0;
  MentionStream stream(*dep->graph, cfg.seed);
  Rng sched(cfg.seed * 0x9E3779B97F4A7C15ULL + 17);

  // Check first, on fresh mentions no phase sends, so the remote path
  // runs encode and search rather than the query cache: remote replies
  // (ids and distances of the scored reply, ids of the plain one) equal
  // an uncached in-process EmbLookup::BulkLookup of the same mentions.
  {
    MentionStream fresh(*dep->graph, cfg.seed ^ 0xC4EC4, /*zipf_s=*/0.0);
    const std::vector<Query> sample = Draw(&fresh, kCheckSample);
    std::vector<std::string> texts;
    for (const Query& q : sample) texts.push_back(q.text);
    const auto reference = dep->el->BulkLookup(texts, kTopK, /*parallel=*/true);
    net::RemoteClient client;
    if (!client.Connect("127.0.0.1", port).ok()) FailRun("check connect");
    int64_t mismatches = 0;
    int64_t cached = 0;
    for (size_t i = 0; i < texts.size(); ++i) {
      std::vector<int64_t> ids;
      std::vector<float> dists;
      for (const auto& hit : reference[i]) {
        ids.push_back(hit.entity);
        dists.push_back(hit.dist);
      }
      auto scored = client.LookupScored(texts[i], kTopK);
      if (!scored.ok()) FailRun("check lookup: " + scored.status().ToString());
      auto plain = client.Lookup(texts[i], kTopK);
      if (!plain.ok()) FailRun("check lookup: " + plain.status().ToString());
      cached += scored.value().from_cache;
      if (scored.value().ids != ids || plain.value().ids != ids ||
          scored.value().dists.size() != dists.size() ||
          std::memcmp(scored.value().dists.data(), dists.data(),
                      dists.size() * sizeof(float)) != 0) {
        ++mismatches;
      }
    }
    std::printf("check remote == uncached in-process: %lld mismatches of %d "
                "(%lld scored replies from the query cache)\n",
                static_cast<long long>(mismatches), kCheckSample,
                static_cast<long long>(cached));
    if (mismatches != 0) FailRun("remote replies differ from in-process");
    out.attempted += 2 * kCheckSample;
  }
  const auto stages_before = obs::StageMetrics::Global().SnapshotAll();

  // `server_cpu_s`, when given, receives the CPU time the process spent
  // outside this (the generator's) thread during the phase.
  auto run_phase = [&](double rate, const char* phase,
                       std::vector<Query>* queries,
                       double* server_cpu_s = nullptr) {
    const std::vector<double> due = PoissonSchedule(rate, phase_s, &sched);
    *queries = Draw(&stream, due.size());
    ServeWindow win;
    win.Begin({server});
    const double process0 = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    const double thread0 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    PhaseResult r = OpenLoop(port, kMaxConns, *queries, due, kTopK);
    if (server_cpu_s != nullptr) {
      *server_cpu_s = (CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - process0) -
                      (CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - thread0);
    }
    win.End({server});
    win.Report(phase, &out.layer);
    CheckGenerator(r, phase);
    CountPhase(r, &out);
    SetPhaseLatency(r.latency_us, phase, &out);
    return r;
  };
  std::vector<Query> q_low, q_high, q_writes;
  const PhaseResult low = run_phase(kLowRate, "low", &q_low);
  double high_cpu_s = 0.0;
  const PhaseResult high = run_phase(kHighRate, "high", &q_high, &high_cpu_s);
  // The offered rate is fixed, so the served rate only says whether
  // requests failed. The throughput figure is instead mentions served per
  // CPU-second of the serving threads (net, dispatcher, workers): what
  // bounds the rate one host can serve.
  out.e2e.Set("mentions_per_s", high.ok / high_cpu_s, "1/s");
  std::printf("high: %lld served in %.2fs on %.2f server CPU-s\n",
              static_cast<long long>(high.ok), high.elapsed_s, high_cpu_s);
  Quality quality;
  quality.AddPhase(low, q_low);
  quality.AddPhase(high, q_high);

  // hit@10 and recall (vs an exact flat scan over the same encoder's
  // embeddings) on kQualitySample uniformly drawn mentions submitted
  // in-process all at once.
  double recall = 0.0;
  double hit_rate = 0.0;
  {
    const std::vector<Query> sample =
        UniformSample(*dep->graph, cfg.seed, kQualitySample);
    std::vector<std::future<Result<serve::LookupResponse>>> pending;
    for (const Query& q : sample) {
      pending.push_back(server->Submit(q.text, kTopK));
    }
    std::vector<std::vector<int64_t>> served;
    for (auto& f : pending) {
      Result<serve::LookupResponse> r = f.get();
      if (!r.ok()) FailRun("quality lookup: " + r.status().ToString());
      served.emplace_back(r.value().ids.begin(), r.value().ids.end());
    }
    core::IndexConfig flat = dep->el->index_config();
    flat.kind = core::IndexKind::kFlat;
    auto exact_index = dep->el->BuildIndexSnapshot(flat);
    if (!exact_index.ok()) FailRun("exact index: " +
                                   exact_index.status().ToString());
    std::vector<std::vector<int64_t>> exact;
    for (const Query& q : sample) {
      const std::vector<float> v = dep->el->Embed(q.text);
      exact.emplace_back();
      for (const ann::Neighbor& nb :
           exact_index.value()->Search(v.data(), kTopK)) {
        exact.back().push_back(nb.id);
      }
    }
    recall = MeanOverlap(served, exact);
    hit_rate = SampleHitRate(sample, served);
    out.attempted += kQualitySample;
  }

  // writes: low read rate + the fixed mutation stream through the server.
  const std::vector<Mutation> muts = MutationStream(
      *dep->graph, kMutations, cfg.seed, AllEntities(*dep->graph));
  WriteStats writes;
  PhaseResult writes_reads;
  {
    const auto start = Clock::now();
    std::thread writer([&] {
      writes = RunWriter(server, muts, start, phase_s * 0.8);
    });
    writes_reads = run_phase(kLowRate, "writes", &q_writes);
    writer.join();
  }
  RunCompaction(server, &writes);
  SetWriteMetrics(writes, dep->updater->stats(), &out);
  SetCommon(setup_s, quality, hit_rate, recall, &out);

  // Per-layer view (all cheap; the traced run reports them).
  out.layer.Set("store.load_ms", dep->load_ms, "ms");
  SetServeTotals({server}, &out.layer);
  SetNetTotals({dep->net.get()}, &out.layer);
  SetStageDiff(stages_before, obs::StageMetrics::Global().SnapshotAll(),
               &out.layer);
  SetGeneratorMetrics({&low, &high, &writes_reads}, &out.layer);
  if (cfg.trace) {
    // Net overhead: the same rate in-process through SubmitAsync, on a
    // fresh draw of the same mention distribution.
    for (const auto& [rate, phase, remote] :
         {std::tuple{kLowRate, "low", &low},
          std::tuple{kHighRate, "high", &high}}) {
      const std::vector<double> due =
          PoissonSchedule(rate, phase_s / 2, &sched);
      const std::vector<Query> q = Draw(&stream, due.size());
      const PhaseResult local = OpenLoopInProcess(server, q, due, kTopK);
      CountPhase(local, &out);
      out.layer.Set(std::string("net.overhead_us.") + phase,
                    Percentile(remote->latency_us, 0.5) -
                        Percentile(local.latency_us, 0.5),
                    "us");
    }
    ProbeLayers(dep->el.get(), &stream, &out.layer);
  }
  return out;
}

// ---------------------------------------------------------------------------
// bulk_annotate: in-process table annotation, flat + alias rows, no caches.

namespace {

// Annotated cells of seeded tables, half typo-noised and half rendered as
// aliases, deduplicated so no mention repeats.
std::vector<Query> TableCells(const kg::KnowledgeGraph& graph, uint64_t seed) {
  Rng rng(seed * 31 + 7);
  kg::TabularDataset noisy = kg::GenerateDataset(
      graph, kg::DatasetProfile::StWikidataLike(1.0), &rng);
  kg::TabularDataset aliased = kg::GenerateDataset(
      graph, kg::DatasetProfile::StWikidataLike(1.0), &rng);
  kg::InjectCellNoise(&noisy, 0.5, &rng);
  kg::SubstituteAliases(&aliased, graph, &rng);
  std::vector<Query> cells;
  std::unordered_set<std::string> seen;
  const size_t tables = std::max(noisy.tables.size(), aliased.tables.size());
  for (size_t t = 0; t < tables; ++t) {
    for (const kg::TabularDataset* ds : {&noisy, &aliased}) {
      if (t >= ds->tables.size()) continue;
      for (const auto& row : ds->tables[t].rows) {
        for (const kg::Cell& cell : row) {
          if (cell.gt_entity == kg::kInvalidEntity || cell.text.empty()) {
            continue;
          }
          if (!seen.insert(cell.text).second) continue;
          cells.push_back({cell.text, cell.gt_entity});
        }
      }
    }
  }
  rng.Shuffle(&cells);
  return cells;
}

// Brute-force exact reference: every indexed mention (labels, and aliases
// when the index holds them) encoded through the public batched encoder,
// entity distance = the best of its rows.
class ExactReference {
 public:
  ExactReference(core::EmbLookup* el, const kg::KnowledgeGraph& graph,
                 bool aliases) {
    std::vector<std::string> rows;
    for (kg::EntityId e = 0; e < graph.num_entities(); ++e) {
      rows.push_back(graph.entity(e).label);
      row_entity_.push_back(e);
      if (!aliases) continue;
      for (const std::string& a : graph.entity(e).aliases) {
        rows.push_back(a);
        row_entity_.push_back(e);
      }
    }
    num_entities_ = graph.num_entities();
    encoder_ = el->encoder();
    dim_ = encoder_->dim();
    vectors_ = Encode(rows);
  }

  // Exact entity distances for one query, indexed by entity id.
  std::vector<float> Distances(const std::string& query) {
    const std::vector<float> q = Encode({query});
    std::vector<float> row_dist(row_entity_.size());
    ann::kernels::L2SqrBatch(q.data(), vectors_.data(),
                               static_cast<int64_t>(row_entity_.size()),
                               dim_, row_dist.data());
    std::vector<float> best(static_cast<size_t>(num_entities_),
                            std::numeric_limits<float>::infinity());
    for (size_t r = 0; r < row_entity_.size(); ++r) {
      float& b = best[static_cast<size_t>(row_entity_[r])];
      b = std::min(b, row_dist[r]);
    }
    return best;
  }

 private:
  std::vector<float> Encode(const std::vector<std::string>& mentions) {
    tensor::NoGradGuard no_grad;
    std::vector<float> out;
    out.reserve(mentions.size() * static_cast<size_t>(dim_));
    for (size_t i = 0; i < mentions.size(); i += 1024) {
      const std::vector<std::string> chunk(
          mentions.begin() + static_cast<std::ptrdiff_t>(i),
          mentions.begin() + static_cast<std::ptrdiff_t>(
                                 std::min(mentions.size(), i + 1024)));
      const tensor::Tensor t = encoder_->EncodeBatch(chunk);
      out.insert(out.end(), t.data(), t.data() + chunk.size() * dim_);
    }
    return out;
  }

  core::EmbLookupEncoder* encoder_ = nullptr;
  int64_t dim_ = 0;
  int64_t num_entities_ = 0;
  std::vector<kg::EntityId> row_entity_;
  std::vector<float> vectors_;
};

// The exact top-k entity ids by distance (ties broken by id).
std::vector<int64_t> ExactTopK(const std::vector<float>& exact_dist) {
  std::vector<kg::EntityId> order(exact_dist.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<kg::EntityId>(i);
  }
  const auto kth =
      order.begin() + static_cast<std::ptrdiff_t>(
                          std::min<size_t>(kTopK, order.size()));
  std::partial_sort(order.begin(), kth, order.end(),
                    [&](kg::EntityId a, kg::EntityId b) {
                      const float da = exact_dist[static_cast<size_t>(a)];
                      const float db = exact_dist[static_cast<size_t>(b)];
                      return da != db ? da < db : a < b;
                    });
  return std::vector<int64_t>(order.begin(), kth);
}

// Served top-k vs the exact reference: distinct ids, length min(k, live),
// and at every position a served entity whose exact distance is within
// float tolerance of the exact distance ranked there (ties may swap).
// Returns the mismatch count.
int64_t CompareExact(const std::vector<core::LookupResult>& served,
                     const std::vector<float>& exact_dist,
                     std::vector<int64_t>* exact_ids) {
  *exact_ids = ExactTopK(exact_dist);
  const size_t k = exact_ids->size();
  int64_t mismatches = served.size() == k ? 0 : 1;
  std::unordered_set<kg::EntityId> distinct;
  for (size_t i = 0; i < served.size() && i < k; ++i) {
    const kg::EntityId id = served[i].entity;
    if (id < 0 || static_cast<size_t>(id) >= exact_dist.size() ||
        !distinct.insert(id).second) {
      ++mismatches;
      continue;
    }
    const float want = exact_dist[static_cast<size_t>((*exact_ids)[i])];
    const float got = exact_dist[static_cast<size_t>(id)];
    const float tol = 1e-5f * std::max(1.0f, want);
    if (got > want + tol || std::fabs(served[i].dist - got) > tol) {
      ++mismatches;
    }
  }
  return mismatches;
}

}  // namespace

RunOutput RunBulkAnnotate(const RunConfig& cfg) {
  struct Deployment {
    std::unique_ptr<kg::KnowledgeGraph> graph;
    std::unique_ptr<core::EmbLookup> el;
    std::unique_ptr<update::IndexUpdater> updater;
    double build_s = 0.0;
  };
  RunOutput out;
  DefaultLayerMetrics(&out.layer);
  double setup_s = 0.0;
  auto dep = SetupMedian<Deployment>(
      [&](int rep) {
        ScopedSpan setup("bench.setup");
        auto d = std::make_unique<Deployment>();
        d->graph = LoadCatalog(cfg.art.small_catalog_tsv());
        const core::EmbLookupOptions o =
            LoadOptions(cfg.art, core::IndexKind::kFlat, true);
        const auto t0 = Clock::now();
        {
          ScopedSpan span("core.index_build", setup.index());
          d->el = Unwrap(core::EmbLookup::LoadFromKg(*d->graph, o,
                                                     cfg.art.encoder_path()),
                         "flat index build");
        }
        d->build_s = SecondsSince(t0);
        d->updater = OpenUpdater(
            d->el.get(), d->graph.get(),
            cfg.work_dir + "/bulk-" + std::to_string(rep) + ".wal");
        MentionStream warm(*d->graph, kCatalogSeed);
        std::vector<std::string> warm_batch;
        for (int i = 0; i < kBulkTableCells; ++i) {
          warm_batch.push_back(warm.Next().text);
        }
        d->el->BulkLookup(warm_batch, kTopK, /*parallel=*/true);
        return d;
      },
      &setup_s);
  core::EmbLookup* el = dep->el.get();
  const std::vector<Query> cells = TableCells(*dep->graph, cfg.seed);
  if (cells.empty()) FailRun("no table cells generated");
  size_t next_cell = 0;
  Quality quality;
  const double phase_s = cfg.seconds / 3.0;
  const auto stages_before = obs::StageMetrics::Global().SnapshotAll();

  // One caller annotating `cells_per_call` cells per BulkLookup(parallel)
  // call for `seconds`: a call starts every `pace_us` (back to back when
  // 0 or when the previous call overran); latency is per call.
  struct Calls {
    std::vector<double> latency_us;
    int64_t mentions = 0;
    double wall_s = 0.0;
  };
  auto slice = [&](int cells_per_call, double seconds, double pace_us,
                   bool count_quality, Calls* into) {
    const auto start = Clock::now();
    const auto end =
        start + std::chrono::nanoseconds(static_cast<int64_t>(seconds * 1e9));
    auto next_start = start;
    while (Clock::now() < end) {
      std::this_thread::sleep_until(next_start);
      next_start +=
          std::chrono::nanoseconds(static_cast<int64_t>(pace_us * 1e3));
      std::vector<std::string> texts;
      std::vector<const Query*> asked;
      for (int i = 0; i < cells_per_call; ++i) {
        const Query& q = cells[next_cell++ % cells.size()];
        texts.push_back(q.text);
        asked.push_back(&q);
      }
      const auto t0 = Clock::now();
      std::vector<std::vector<core::LookupResult>> results;
      {
        ScopedSpan span("core.bulk_lookup");
        results = el->BulkLookup(texts, kTopK, /*parallel=*/true);
      }
      const double us = MicrosBetween(t0, Clock::now());
      const bool ok = results.size() == texts.size();
      into->latency_us.push_back(ok ? us : kFailedLatencyUs);
      out.attempted += 1;
      if (!ok) out.failed += 1;
      into->mentions += cells_per_call;
      if (count_quality && ok) {
        for (size_t i = 0; i < results.size(); ++i) {
          std::vector<int64_t> ids;
          for (const auto& hit : results[i]) ids.push_back(hit.entity);
          quality.Add(*asked[i], ids, true);
        }
      }
    }
    into->wall_s += SecondsSince(start);
  };
  auto finish = [&](const Calls& c, const char* phase, int cells_per_call) {
    std::printf("phase %-6s %zu calls of %d mentions\n", phase,
                c.latency_us.size(), cells_per_call);
    SetPhaseLatency(c.latency_us, phase, &out);
  };
  // low (paced single tables) and high (back-to-back bulk requests)
  // alternate in kRounds slices so both sample the same host conditions.
  Calls low, high;
  for (int round = 0; round < kRounds; ++round) {
    slice(kBulkTableCells, phase_s / kRounds, kBulkPaceUs, true, &low);
    slice(kBulkRequestCells, phase_s / kRounds, 0.0, true, &high);
  }
  finish(low, "low", kBulkTableCells);
  finish(high, "high", kBulkRequestCells);
  out.e2e.Set("mentions_per_s",
              static_cast<double>(high.mentions) / high.wall_s, "1/s");

  // Check: served top-k vs brute force over every indexed mention.
  double recall = 0.0;
  {
    ExactReference exact(el, *dep->graph, /*aliases=*/true);
    int64_t mismatches = 0;
    double recall_sum = 0.0;
    std::vector<std::string> sample;
    for (int i = 0; i < kCheckSample / 4; ++i) {
      sample.push_back(cells[(next_cell + static_cast<size_t>(i) * 7919) %
                             cells.size()].text);
    }
    const auto served = el->BulkLookup(sample, kTopK, /*parallel=*/true);
    for (size_t i = 0; i < sample.size(); ++i) {
      std::vector<int64_t> exact_ids;
      mismatches += CompareExact(served[i], exact.Distances(sample[i]),
                                 &exact_ids);
      std::vector<int64_t> got;
      for (const auto& hit : served[i]) got.push_back(hit.entity);
      recall_sum += Overlap(got, exact_ids);
    }
    out.attempted += static_cast<int64_t>(sample.size());
    recall = recall_sum / static_cast<double>(sample.size());
    std::printf("check bulk vs brute-force exact: %lld mismatches over %zu "
                "queries; recall@10 %.4f\n",
                static_cast<long long>(mismatches), sample.size(), recall);
    if (mismatches != 0) FailRun("bulk top-k differs from exact reference");
  }

  // writes: one table per call while the mutation stream runs.
  const std::vector<Mutation> muts = MutationStream(
      *dep->graph, kMutations, cfg.seed, AllEntities(*dep->graph));
  WriteStats writes;
  {
    const auto start = Clock::now();
    std::thread writer([&] {
      writes = RunWriter(dep->updater.get(), muts, start, phase_s * 0.8);
    });
    Calls reads;
    slice(kBulkTableCells, phase_s, kBulkPaceUs, false, &reads);
    finish(reads, "writes", kBulkTableCells);
    writer.join();
  }
  RunCompaction(dep->updater.get(), &writes);
  SetWriteMetrics(writes, dep->updater->stats(), &out);
  SetCommon(setup_s, quality, quality.HitRate(), recall, &out);
  out.layer.Set("core.index_build_s", dep->build_s, "s");
  SetStageDiff(stages_before, obs::StageMetrics::Global().SnapshotAll(),
               &out.layer);
  if (cfg.trace) {
    MentionStream probe(*dep->graph, cfg.seed ^ 0xABCDEF);
    ProbeLayers(el, &probe, &out.layer);
  }
  return out;
}

// ---------------------------------------------------------------------------
// routed_shards: Router over kShards flat shard servers, caches off,
// closed loop from the one generator thread.

RunOutput RunRoutedShards(const RunConfig& cfg) {
  struct Shard {
    std::unique_ptr<kg::KnowledgeGraph> graph;
    std::unique_ptr<core::EmbLookup> el;
    std::unique_ptr<update::IndexUpdater> updater;  // Shard 0 only.
    std::unique_ptr<serve::LookupServer> server;
    std::unique_ptr<net::NetServer> net;
  };
  struct Deployment {
    std::vector<std::unique_ptr<Shard>> shards;
    std::unique_ptr<cluster::Router> router;  // Stops before the shards.
    double build_s = 0.0;
  };
  RunOutput out;
  DefaultLayerMetrics(&out.layer);
  double setup_s = 0.0;
  auto dep = SetupMedian<Deployment>(
      [&](int rep) {
        ScopedSpan setup("bench.setup");
        auto d = std::make_unique<Deployment>();
        cluster::RouterOptions ro;
        for (int s = 0; s < kShards; ++s) {
          auto shard = std::make_unique<Shard>();
          shard->graph = LoadCatalog(cfg.art.small_catalog_tsv());
          const core::EmbLookupOptions o =
              LoadOptions(cfg.art, core::IndexKind::kFlat, false);
          const auto t0 = Clock::now();
          {
            ScopedSpan span("core.index_build", setup.index());
            shard->el = Unwrap(core::EmbLookup::LoadFromKg(
                                   *shard->graph, o, cfg.art.encoder_path()),
                               "shard load");
            const auto exclude =
                cluster::ShardExclusions(*shard->graph, s, kShards);
            auto built = shard->el->BuildIndexSnapshot(o.index, &exclude);
            if (!built.ok()) {
              FailRun("shard index: " + built.status().ToString());
            }
            const Status swapped =
                shard->el->SwapIndex(std::move(built).value());
            if (!swapped.ok()) FailRun("shard swap: " + swapped.ToString());
          }
          d->build_s += SecondsSince(t0);
          serve::ServerOptions so;
          so.enable_cache = false;
          shard->server =
              std::make_unique<serve::LookupServer>(shard->el.get(), so);
          if (s == 0) {
            shard->updater = OpenUpdater(
                shard->el.get(), shard->graph.get(),
                cfg.work_dir + "/shard0-" + std::to_string(rep) + ".wal");
            shard->server->AttachUpdater(shard->updater.get());
          }
          shard->net = StartNet(shard->server.get());
          ro.shard_addrs.push_back("127.0.0.1:" +
                                   std::to_string(shard->net->port()));
          d->shards.push_back(std::move(shard));
        }
        d->router = std::make_unique<cluster::Router>();
        const Status started = d->router->Start(ro, 0);
        if (!started.ok()) FailRun("router: " + started.ToString());
        MentionStream warm(*d->shards[0]->graph, kCatalogSeed);
        WarmRemote(d->router->port(), &warm);
        return d;
      },
      &setup_s);
  cluster::Router* router = dep->router.get();
  std::vector<serve::LookupServer*> servers;
  std::vector<net::NetServer*> nets;
  for (auto& s : dep->shards) {
    servers.push_back(s->server.get());
    nets.push_back(s->net.get());
  }
  const kg::KnowledgeGraph& catalog = *dep->shards[0]->graph;
  const double phase_s = cfg.seconds / 3.0;
  MentionStream stream(catalog, cfg.seed);
  const std::vector<Query> queries = Draw(&stream, 200000);
  const auto stages_before = obs::StageMetrics::Global().SnapshotAll();
  // low (one caller) and high (kMaxConns callers) alternate in kRounds
  // slices, so both phases sample the same stretch of host conditions.
  // One cursor runs through the query pool across slices, wrapping round.
  size_t next_query = 0;
  auto slice = [&](int callers, double seconds, ServeWindow* win,
                   PhaseResult* into) {
    win->Begin(servers);
    const PhaseResult r =
        ClosedLoop(router->port(), callers, seconds, queries, next_query,
                   kTopK);
    win->End(servers);
    Merge(into, r);
    next_query = (next_query + static_cast<size_t>(r.sent)) % queries.size();
  };
  auto finish = [&](const PhaseResult& r, const ServeWindow& win,
                    const char* phase) {
    win.Report(phase, &out.layer);
    CheckGenerator(r, phase);
    CountPhase(r, &out);
    SetPhaseLatency(r.latency_us, phase, &out);
  };
  PhaseResult low, high;
  ServeWindow win_low, win_high;
  double routed = 0.0, rpcs = 0.0, useful_rpcs = 0.0, shard_lookups = 0.0;
  auto shard_completed = [&] {
    uint64_t n = 0;
    for (auto* s : servers) n += s->Metrics().requests_completed;
    return static_cast<double>(n);
  };
  for (int round = 0; round < kRounds; ++round) {
    slice(1, phase_s / kRounds, &win_low, &low);
    const cluster::RouterStatsSnapshot r0 = router->Stats();
    const double done0 = shard_completed();
    slice(kMaxConns, phase_s / kRounds, &win_high, &high);
    const cluster::RouterStatsSnapshot r1 = router->Stats();
    routed += static_cast<double>(r1.requests - r0.requests);
    shard_lookups += shard_completed() - done0;
    rpcs += static_cast<double>((r1.shard_rpcs - r0.shard_rpcs) +
                                (r1.hedged_rpcs - r0.hedged_rpcs));
    useful_rpcs +=
        static_cast<double>((r1.shard_rpcs - r0.shard_rpcs) -
                            (r1.shard_rpc_failures - r0.shard_rpc_failures));
  }
  finish(low, win_low, "low");
  finish(high, win_high, "high");
  Quality quality;
  quality.AddPhase(low, queries);
  quality.AddPhase(high, queries);
  out.e2e.Set("mentions_per_s", high.ok / high.elapsed_s, "1/s");

  // Checks on kQualitySample uniformly drawn mentions, routed by kMaxConns
  // in-process callers. The first kCheckSample answers must be
  // bit-identical (ids and float distances) to one flat index over the
  // whole catalog. hit@10 is taken over all routed answers, and recall@10
  // against an independent brute-force scan of every label row.
  double recall = 0.0;
  double hit_rate = 0.0;
  {
    const std::vector<Query> sample =
        UniformSample(catalog, cfg.seed, kQualitySample);
    std::vector<cluster::Router::RoutedResult> routed(sample.size());
    std::vector<std::string> errors(kMaxConns);
    {
      std::vector<std::thread> callers;
      for (size_t c = 0; c < kMaxConns; ++c) {
        callers.emplace_back([&, c] {
          for (size_t i = c; i < sample.size(); i += kMaxConns) {
            auto r = router->Route(sample[i].text, kTopK);
            if (!r.ok()) {
              errors[c] = r.status().ToString();
              return;
            }
            routed[i] = std::move(r).ValueOrDie();
          }
        });
      }
      for (auto& t : callers) t.join();
    }
    for (const std::string& e : errors) {
      if (!e.empty()) FailRun("routed quality lookup: " + e);
    }
    auto ref_graph = LoadCatalog(cfg.art.small_catalog_tsv());
    auto ref = Unwrap(core::EmbLookup::LoadFromKg(
                          *ref_graph,
                          LoadOptions(cfg.art, core::IndexKind::kFlat, false),
                          cfg.art.encoder_path()),
                      "reference index");
    std::vector<std::string> texts;
    for (int i = 0; i < kCheckSample; ++i) {
      texts.push_back(sample[static_cast<size_t>(i)].text);
    }
    const auto single = ref->BulkLookup(texts, kTopK, /*parallel=*/true);
    int64_t mismatches = 0;
    for (size_t i = 0; i < single.size(); ++i) {
      std::vector<int64_t> ids;
      std::vector<float> dists;
      for (const auto& hit : single[i]) {
        ids.push_back(hit.entity);
        dists.push_back(hit.dist);
      }
      const auto& got = routed[i];
      if (got.partial || got.ids != ids || got.dists.size() != dists.size() ||
          std::memcmp(got.dists.data(), dists.data(),
                      dists.size() * sizeof(float)) != 0) {
        ++mismatches;
      }
    }
    std::printf("check routed == single flat index: %lld mismatches of %d\n",
                static_cast<long long>(mismatches), kCheckSample);
    if (mismatches != 0) FailRun("routed results differ from single index");
    ExactReference exact(ref.get(), *ref_graph, /*aliases=*/false);
    std::vector<std::vector<int64_t>> routed_ids, exact_ids;
    for (size_t i = 0; i < sample.size(); ++i) {
      routed_ids.push_back(routed[i].ids);
      exact_ids.push_back(ExactTopK(exact.Distances(sample[i].text)));
    }
    recall = MeanOverlap(routed_ids, exact_ids);
    hit_rate = SampleHitRate(sample, routed_ids);
    std::printf("routed quality over %zu mentions: hit@10 %.4f, recall@10 "
                "vs brute-force exact %.4f\n",
                sample.size(), hit_rate, recall);
    out.attempted += kQualitySample + kCheckSample;
  }

  // writes: one caller + the mutation stream into shard 0.
  std::vector<kg::EntityId> shard0;
  for (kg::EntityId e = 0; e < catalog.num_entities(); ++e) {
    if (cluster::AssignShard(e, kShards) == 0) shard0.push_back(e);
  }
  const std::vector<Mutation> muts =
      MutationStream(catalog, kMutations, cfg.seed, shard0);
  WriteStats writes;
  PhaseResult writes_reads;
  {
    const auto start = Clock::now();
    std::thread writer([&] {
      writes = RunWriter(servers[0], muts, start, phase_s * 0.8);
    });
    ServeWindow win_writes;
    slice(1, phase_s, &win_writes, &writes_reads);
    writer.join();
    finish(writes_reads, win_writes, "writes");
  }
  RunCompaction(servers[0], &writes);
  SetWriteMetrics(writes, dep->shards[0]->updater->stats(), &out);
  SetCommon(setup_s, quality, hit_rate, recall, &out);
  out.layer.Set("core.index_build_s", dep->build_s, "s");
  SetServeTotals(servers, &out.layer);
  SetNetTotals(nets, &out.layer);
  SetStageDiff(stages_before, obs::StageMetrics::Global().SnapshotAll(),
               &out.layer);
  SetGeneratorMetrics({&low, &high, &writes_reads}, &out.layer);
  out.layer.Set("cluster.encodes_per_request",
                routed == 0.0 ? 0.0 : shard_lookups / routed, "count");
  out.layer.Set("cluster.rpc_useful_ratio",
                rpcs == 0.0 ? 0.0 : useful_rpcs / rpcs, "ratio");
  out.layer.Set("cluster.partial_responses",
                static_cast<double>(router->Stats().partial_responses),
                "count");
  if (cfg.trace) {
    // In-process Router::Route, one caller, against the remote 1-caller p50.
    MentionStream probe_stream(catalog, cfg.seed ^ 0xABCDEF);
    const std::vector<Query> probe = Draw(&probe_stream, 500);
    std::vector<double> route_us;
    for (size_t i = 0; i < probe.size(); ++i) {
      const auto t0 = Clock::now();
      {
        ScopedSpan span("cluster.route", -1, i + 1);
        auto r = router->Route(probe[i].text, kTopK);
        if (!r.ok()) FailRun("route probe: " + r.status().ToString());
      }
      route_us.push_back(MicrosBetween(t0, Clock::now()));
    }
    out.attempted += static_cast<int64_t>(probe.size());
    out.layer.Set("cluster.route_us", Median(route_us), "us");
    out.layer.Set("net.overhead_us.low",
                  Percentile(low.latency_us, 0.5) - Median(route_us), "us");
    ProbeLayers(dep->shards[0]->el.get(), &stream, &out.layer);
  }
  return out;
}

}  // namespace emblookup::bench_e2e
