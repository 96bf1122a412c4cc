// Parallel pipeline throughput: wall-clock pages/sec of DedupOp + RestoreOp
// at 1..N worker threads, plus base-page cache hit rates. Emits JSON so CI
// and plotting scripts can ingest it directly.
//
// Modelled SimDurations are identical across thread counts by construction
// (see the threading-model notes in DESIGN.md); what varies is real
// wall-clock time, which is what this benchmark measures. Thread counts to
// sweep come from MEDES_BENCH_THREADS (comma-separated, default "1,2,4,8");
// on a single-core host the sweep still runs but speedups hover around 1x.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"

using namespace medes;

namespace {

std::vector<size_t> SweepThreadCounts() {
  std::vector<size_t> counts;
  const char* env = std::getenv("MEDES_BENCH_THREADS");
  std::string spec = env != nullptr ? env : "1,2,4,8";
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    long v = std::strtol(spec.substr(pos, comma - pos).c_str(), nullptr, 10);
    if (v >= 1 && v <= 256) counts.push_back(static_cast<size_t>(v));
    pos = comma + 1;
  }
  if (counts.empty()) counts.push_back(1);
  return counts;
}

struct RunResult {
  size_t threads = 0;
  size_t pages = 0;
  size_t pages_deduped = 0;
  double dedup_ms = 0;
  double restore_ms = 0;
  double dedup_pages_per_sec = 0;
  double restore_pages_per_sec = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  double cache_hit_rate = 0;
};

// One full configuration: fresh cluster/registry/fabric so every thread
// count processes byte-identical work.
RunResult RunConfig(size_t threads, int victims_per_function) {
  ClusterOptions copts;
  copts.num_nodes = 2;
  copts.node_memory_mb = 1e9;
  copts.bytes_per_mb = 65536;
  Cluster cluster(copts);
  FingerprintRegistry registry;
  RdmaFabric fabric({.page_cache_capacity = 4096},
                    [&](const PageLocation& loc) { return cluster.ReadBasePage(loc); });
  DedupAgentOptions aopts;
  aopts.num_threads = threads;
  DedupAgent agent(cluster, registry, fabric, aopts);

  for (const auto& p : FunctionBenchProfiles()) {
    Sandbox& base = cluster.Spawn(p, NodeId{0}, SimTime{0});
    cluster.MarkWarm(base, SimTime{0});
    agent.DesignateBase(base);
  }
  std::vector<SandboxId> victims;
  for (int i = 0; i < victims_per_function; ++i) {
    for (const auto& p : FunctionBenchProfiles()) {
      Sandbox& sb = cluster.Spawn(p, NodeId{1}, SimTime{0});
      cluster.MarkWarm(sb, SimTime{0});
      victims.push_back(sb.id);
    }
  }

  RunResult r;
  r.threads = agent.NumThreads();
  const auto t0 = std::chrono::steady_clock::now();
  for (SandboxId id : victims) {
    DedupOpResult d = agent.DedupOp(*cluster.Find(id), SimTime{1});
    r.pages += d.pages_total;
    r.pages_deduped += d.pages_deduped;
  }
  const auto t1 = std::chrono::steady_clock::now();
  for (SandboxId id : victims) {
    agent.RestoreOp(*cluster.Find(id), SimTime{2}, /*verify=*/false);
  }
  const auto t2 = std::chrono::steady_clock::now();

  r.dedup_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  r.restore_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
  r.dedup_pages_per_sec =
      r.dedup_ms > 0 ? 1000.0 * static_cast<double>(r.pages) / r.dedup_ms : 0;
  r.restore_pages_per_sec =
      r.restore_ms > 0 ? 1000.0 * static_cast<double>(r.pages) / r.restore_ms : 0;
  r.cache_hits = fabric.stats().cache_hits;
  r.cache_misses = fabric.stats().cache_misses;
  r.cache_hit_rate = fabric.stats().CacheHitRate();
  PublishMetrics(agent.stats());
  PublishMetrics(registry.stats());
  PublishMetrics(fabric.stats());
  PublishMetrics(fabric.transport()->stats());
  return r;
}

}  // namespace

int main() {
  const std::vector<size_t> thread_counts = SweepThreadCounts();
  const int victims_per_function = 2;

  std::vector<RunResult> results;
  results.reserve(thread_counts.size());
  for (size_t threads : thread_counts) {
    results.push_back(RunConfig(threads, victims_per_function));
  }
  const RunResult& serial = results.front();

  bench::JsonWriter w;
  w.BeginObject();
  bench::WriteMetadata(w, "pipeline_throughput");
  w.Field("victims_per_function", victims_per_function);
  w.BeginArray("configs");
  for (const RunResult& r : results) {
    w.BeginObject()
        .Field("threads", r.threads)
        .Field("pages", r.pages)
        .Field("pages_deduped", r.pages_deduped)
        .Field("dedup_ms", r.dedup_ms)
        .Field("restore_ms", r.restore_ms)
        .Field("dedup_pages_per_sec", r.dedup_pages_per_sec, 0)
        .Field("restore_pages_per_sec", r.restore_pages_per_sec, 0)
        .Field("dedup_speedup_vs_serial", serial.dedup_ms > 0 ? serial.dedup_ms / r.dedup_ms : 0.0)
        .Field("restore_speedup_vs_serial",
               serial.restore_ms > 0 ? serial.restore_ms / r.restore_ms : 0.0)
        .Field("cache_hits", r.cache_hits)
        .Field("cache_misses", r.cache_misses)
        .Field("cache_hit_rate", r.cache_hit_rate, 4)
        .EndObject();
  }
  w.EndArray().EndObject();
  std::printf("%s\n", w.str().c_str());
  bench::ExportObservability("pipeline_throughput");
  return 0;
}
