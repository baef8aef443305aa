#include "harness.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "ann/kernels.h"
#include "embed/corpus.h"
#include "kg/noise.h"
#include "kg/synthetic_kg.h"

#ifndef EMBLOOKUP_BENCH_BUILD_TYPE
#define EMBLOOKUP_BENCH_BUILD_TYPE "unknown"
#endif

namespace emblookup::bench_e2e {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

void FailRun(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "bench_e2e: RUN FAILED: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(1);
}

void MetricSink::Set(const std::string& name, double value,
                     const std::string& unit) {
  values_[name] = {value, unit};
}

std::string MetricSink::Json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{";
  bool first = true;
  for (const auto& [name, vu] : values_) {
    if (!first) os << ", ";
    first = false;
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    os << "\"" << name << "\": {\"value\": " << v << ", \"unit\": \""
       << vu.second << "\"}";
  }
  os << "}";
  return os.str();
}

double PeakRssMb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux.
}

core::EmbLookupOptions ModelOptions() {
  core::EmbLookupOptions options;
  options.miner.triplets_per_entity = 16;
  options.trainer.epochs = 8;
  options.trainer.log_every = 0;
  return options;
}

std::shared_ptr<embed::FastTextModel> LoadSemantic(const Artifacts& art) {
  const core::EmbLookupOptions options = ModelOptions();
  auto model = std::make_shared<embed::FastTextModel>(
      options.fasttext, embed::FastTextModel::SubwordOptions{});
  std::ifstream in(art.semantic_path(), std::ios::binary);
  if (!in) FailRun("missing fastText artifact " + art.semantic_path());
  const Status s = model->Load(&in);
  if (!s.ok()) FailRun("fastText artifact: " + s.ToString());
  return model;
}

int Prepare(const std::string& dir) {
  ::mkdir(dir.c_str(), 0755);
  const Artifacts art{dir};
  const auto t0 = Clock::now();

  kg::SyntheticKgOptions train_kg;
  train_kg.num_entities = kTrainEntities;
  train_kg.seed = kTrainSeed;
  const kg::KnowledgeGraph train_graph = kg::GenerateSyntheticKg(train_kg);
  core::EmbLookupOptions options = ModelOptions();
  auto semantic = std::make_shared<embed::FastTextModel>(
      options.fasttext, embed::FastTextModel::SubwordOptions{});
  semantic->Train(embed::BuildCorpus(train_graph, options.corpus));
  const double fasttext_s = SecondsSince(t0);
  {
    std::ofstream out(art.semantic_path(), std::ios::binary);
    const Status s = semantic->Save(&out);
    if (!s.ok() || !out) {
      std::fprintf(stderr, "cannot write %s\n", art.semantic_path().c_str());
      return 1;
    }
  }
  options.pretrained_semantic = semantic;
  auto trained = core::EmbLookup::TrainFromKg(train_graph, options);
  if (!trained.ok()) {
    std::fprintf(stderr, "training failed: %s\n",
                 trained.status().ToString().c_str());
    return 1;
  }
  Status s = trained.value()->SaveModel(art.encoder_path());
  if (!s.ok()) {
    std::fprintf(stderr, "save encoder: %s\n", s.ToString().c_str());
    return 1;
  }
  const double train_s = SecondsSince(t0);

  kg::SyntheticKgOptions catalog_kg;
  catalog_kg.num_entities = kCatalogEntities;
  catalog_kg.seed = kCatalogSeed;
  const kg::KnowledgeGraph catalog = kg::GenerateSyntheticKg(catalog_kg);
  s = catalog.SaveTsv(art.catalog_tsv());
  if (s.ok()) {
    catalog_kg.num_entities = kSmallCatalogEntities;
    s = kg::GenerateSyntheticKg(catalog_kg).SaveTsv(art.small_catalog_tsv());
  }
  if (!s.ok()) {
    std::fprintf(stderr, "save catalog: %s\n", s.ToString().c_str());
    return 1;
  }
  // The online workload serves the `serve` default backend (kAuto -> PQ)
  // from a snapshot, so its cold start is a store load, not a build.
  auto served = core::EmbLookup::LoadFromKg(catalog, options,
                                            art.encoder_path());
  if (!served.ok()) {
    std::fprintf(stderr, "catalog index: %s\n",
                 served.status().ToString().c_str());
    return 1;
  }
  s = served.value()->SaveSnapshot(art.snapshot_path());
  if (!s.ok()) {
    std::fprintf(stderr, "snapshot: %s\n", s.ToString().c_str());
    return 1;
  }
  // Flush the fresh artifacts now: writeback left running into the first
  // run would slow its WAL fsyncs.
  ::sync();
  std::printf("prepare: fastText %.1fs, encoder %.1fs (%lld training "
              "entities, seed %llu); catalog %lld entities + PQ snapshot "
              "%.1fs; total %.1fs\n",
              fasttext_s, train_s - fasttext_s,
              static_cast<long long>(kTrainEntities),
              static_cast<unsigned long long>(kTrainSeed),
              static_cast<long long>(kCatalogEntities),
              SecondsSince(t0) - train_s, SecondsSince(t0));
  return 0;
}

MentionStream::MentionStream(const kg::KnowledgeGraph& graph, uint64_t seed,
                             double zipf_s)
    : graph_(&graph), rng_(seed), zipf_s_(zipf_s) {
  by_popularity_.resize(static_cast<size_t>(graph.num_entities()));
  for (size_t i = 0; i < by_popularity_.size(); ++i) {
    by_popularity_[i] = static_cast<kg::EntityId>(i);
  }
  Rng order(kCatalogSeed);
  order.Shuffle(&by_popularity_);
}

Query MentionStream::Next() {
  const uint64_t rank = zipf_s_ > 0.0
                            ? rng_.Zipf(by_popularity_.size(), zipf_s_)
                            : rng_.Uniform(by_popularity_.size());
  const kg::EntityId id =
      by_popularity_[std::min<uint64_t>(rank, by_popularity_.size() - 1)];
  const kg::Entity& e = graph_->entity(id);
  Query q;
  q.truth = id;
  q.text = !e.aliases.empty() && rng_.Bernoulli(kAliasShare)
               ? rng_.Choice(e.aliases)
               : e.label;
  if (rng_.Bernoulli(kNoiseShare)) q.text = kg::RandomNoise(q.text, &rng_);
  return q;
}

std::vector<double> PoissonSchedule(double rate_per_s, double seconds,
                                    Rng* rng) {
  std::vector<double> due;
  double t = 0.0;
  const double end_us = seconds * 1e6;
  while (true) {
    t += -std::log(1.0 - rng->UniformDouble()) / rate_per_s * 1e6;
    if (t >= end_us) break;
    due.push_back(t);
  }
  return due;
}

std::vector<Mutation> MutationStream(
    const kg::KnowledgeGraph& graph, int count, uint64_t seed,
    const std::vector<kg::EntityId>& eligible) {
  Rng rng(seed ^ 0x5bd1e995ULL);
  std::vector<kg::EntityId> pool = eligible;
  rng.Shuffle(&pool);
  size_t next = 0;
  std::vector<Mutation> out;
  for (int i = 0; i < count; ++i) {
    Mutation m;
    m.kind = static_cast<Mutation::Kind>(i % 3);
    const kg::Entity& base = graph.entity(rng.Choice(eligible));
    switch (m.kind) {
      case Mutation::kAdd:
        m.label = base.label + " " + kg::RandomTypo(base.label, &rng, 2);
        m.qid = "QB" + std::to_string(seed) + "_" + std::to_string(i);
        m.aliases = {kg::RandomTypo(m.label, &rng, 1)};
        break;
      case Mutation::kAlias:
        m.entity = pool[next++ % pool.size()];
        m.aliases = {kg::RandomTypo(graph.entity(m.entity).label, &rng, 1)};
        break;
      case Mutation::kRemove:
        m.entity = pool[next++ % pool.size()];
        break;
    }
    out.push_back(std::move(m));
  }
  return out;
}

namespace {

std::string FsName(const std::string& dir) {
  struct statfs st {};
  if (::statfs(dir.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0xEF53: return "ext4";
    case 0x794c7630: return "overlayfs";
    case 0x01021994: return "tmpfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    case 0x65735546: return "fuse";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(st.f_type));
      return buf;
    }
  }
}

}  // namespace

std::string Provenance::Json() const {
  std::ostringstream os;
  os.precision(6);
  os << "{\"workload\": \"" << workload << "\", \"seed\": " << seed
     << ", \"seconds\": " << seconds << ", \"trace\": " << (trace ? 1 : 0)
     << ", \"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN)
     << ", \"isa_tier\": \"" << ann::kernels::Dispatch().name
     << "\", \"build_type\": \"" << EMBLOOKUP_BENCH_BUILD_TYPE
     << "\", \"wal_fs\": \"" << FsName(wal_dir)
     << "\", \"train_entities\": " << kTrainEntities
     << ", \"train_seed\": " << kTrainSeed
     << ", \"catalog_entities\": " << kCatalogEntities
     << ", \"small_catalog_entities\": " << kSmallCatalogEntities
     << ", \"catalog_seed\": " << kCatalogSeed << "}";
  return os.str();
}

}  // namespace emblookup::bench_e2e
