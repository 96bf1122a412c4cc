// Campaign workloads: a full platform replay of an Azure-like trace.
//
//   medes_p2_10n     Medes under the combined (P2) objective on 10 workers.
//                    Host time is dominated by the dedup write path, so the
//                    rate unit is a dedup-path page (one registry page
//                    lookup); requests per second swing ~30% with the seed
//                    because dedup work per request does.
//   keepalive_100n   The fixed 10-minute keep-alive baseline on 100 workers,
//                    replaying the first kKeepAliveRequests arrivals of the
//                    hour. No dedup at all: the event engine, platform,
//                    cluster and per-request metrics do every bit of host
//                    work, so the rate unit is a simulated request.
//                    Peak RSS grows with requests, and a whole hour's request
//                    count swings ±15% with the seed; a fixed count keeps
//                    that input-size swing out of the memory figure.
//
// The check pass replays the trace once at the check pool width; the timed
// pass repeats setup + Run() at pool width 1 until the time budget is spent.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "perfbench.h"

namespace medes::perfbench {
namespace {

struct CampaignSpec {
  PolicyKind policy = PolicyKind::kMedes;
  int nodes = 10;
  // True: the host rates count dedup-path pages; false: simulated requests.
  bool rate_in_dedup_pages = false;
  // Replays only the trace's first max_requests arrivals (0 = all of them).
  size_t max_requests = 0;
};

// Below every seed's hour (1.17M-1.57M arrivals on seeds tried), so each
// run replays exactly this many requests.
constexpr size_t kKeepAliveRequests = 1'000'000;

// Rate scales with cluster size so per-node load matches the paper's
// 19-worker evaluation at its 5x magnification (as bench/cluster_scale does).
std::vector<TraceEvent> TraceFor(const CampaignSpec& spec, uint64_t seed) {
  TraceOptions topts;
  topts.duration = kHour;
  topts.rate_scale = 5.0 * static_cast<double>(spec.nodes) / 19.0;
  topts.seed = seed;
  std::vector<TraceEvent> trace = GenerateTrace(DefaultAzurePatterns(), topts);
  if (spec.max_requests > 0 && trace.size() > spec.max_requests) {
    trace.resize(spec.max_requests);
    trace.shrink_to_fit();  // the dropped tail's memory must not count in RSS
  }
  return trace;
}

PlatformOptions OptionsFor(const CampaignSpec& spec, size_t pool_width) {
  PlatformOptions options = bench::EvalOptions(spec.policy);
  options.cluster.num_nodes = spec.nodes;
  options.medes.objective = PolicyObjective::kCombined;  // P2; unused by keep-alive
  options.agent.num_threads = pool_width;
  return options;
}

// The only reader of the per-request vector: ascending dedup-start startup
// latencies in ms, for the dedup-start percentiles.
std::vector<double> DedupStartupMs(const RunMetrics& m) {
  std::vector<double> ms;
  for (const RequestRecord& r : m.requests) {
    if (r.start == StartType::kDedup) {
      ms.push_back(ToMillis(r.startup));
    }
  }
  std::sort(ms.begin(), ms.end());
  return ms;
}

uint64_t DedupPagesDeduped(const RunMetrics& m) {
  uint64_t pages = 0;
  for (const FunctionMetrics& f : m.per_function) {
    pages += f.total_pages_deduped;
  }
  return pages;
}

double MemorySavedMb(const RunMetrics& m) {
  double mb = 0;
  for (const FunctionMetrics& f : m.per_function) {
    mb += f.total_saved_mb;
  }
  return mb;
}

// Everything the modelled cluster reported, in a fixed order. Sim-engine
// counters are left out: they describe the engine, not the cluster.
std::string BehaviourDigest(const RunMetrics& m, const std::vector<double>& dedup_ms) {
  Digest d;
  for (const FunctionMetrics& f : m.per_function) {
    d.Add(f.warm_starts);
    d.Add(f.dedup_starts);
    d.Add(f.cold_starts);
    d.Add(f.dedup_ops);
    d.Add(f.total_saved_mb);
    d.Add(f.total_dedup_op_ms);
    d.Add(f.total_patch_bytes);
    d.Add(f.total_pages_deduped);
  }
  for (uint64_t v : {m.dedup_ops, m.restores, m.sandboxes_spawned, m.sandboxes_deduped,
                     m.evictions, m.base_designations, m.overcommit_events,
                     m.same_function_pages, m.cross_function_pages}) {
    d.Add(v);
  }
  const LazyRestoreStats& lazy = m.lazy_restore;
  for (uint64_t v : {lazy.lazy_restores, lazy.eager_restores, lazy.ws_predicted_pages,
                     lazy.ws_touched_pages, lazy.ws_hit_pages, lazy.ws_fault_pages,
                     lazy.background_completions, lazy.background_pages}) {
    d.Add(v);
  }
  d.Add(lazy.fault_ms);
  d.Add(lazy.background_ms);
  d.Add(m.registry.lookups);
  d.Add(m.registry.key_hits);
  d.Add(static_cast<uint64_t>(m.registry.num_entries));
  for (uint64_t v : {m.rdma.remote_reads, m.rdma.remote_bytes, m.rdma.local_reads,
                     m.rdma.local_bytes, m.rdma.batch_messages, m.rdma.cache_hits,
                     m.rdma.cache_misses, m.rdma.cache_evictions}) {
    d.Add(v);
  }
  for (const MessageStats& s : m.transport.by_type) {
    d.Add(s.messages);
    d.Add(s.bytes);
    d.Add(s.dropped);
    d.Add(static_cast<uint64_t>(s.total_latency.value()));
  }
  d.Add(m.store.cold_fetches);
  d.Add(m.store.ssd_time_us);
  d.Add(static_cast<uint64_t>(m.memory_timeline.size()));
  for (const MemorySample& s : m.memory_timeline) {
    d.Add(static_cast<uint64_t>(s.time.value()));
    d.Add(s.used_mb);
    for (uint64_t v : {s.sandboxes, s.warm, s.dedup, s.bases}) {
      d.Add(v);
    }
    d.Add(static_cast<uint64_t>(s.idle_warm_mb_per_function.size()));
    for (double mb : s.idle_warm_mb_per_function) {
      d.Add(mb);
    }
  }
  d.Add(static_cast<uint64_t>(dedup_ms.size()));
  for (double v : dedup_ms) {
    d.Add(v);
  }
  return d.Hex();
}

// Output checks: for every function, the start types (warm + dedup + cold)
// sum to the function's requests in the trace — so completed requests equal
// the trace length — and the dedup starts the request records hold match the
// start-type counters.
void CheckOutputs(const std::vector<TraceEvent>& trace, const RunMetrics& m,
                  const std::vector<double>& dedup_ms, Result& result) {
  const std::vector<size_t> expected = CountPerFunction(trace);
  uint64_t dedup_starts = 0;
  for (size_t fn = 0; fn < std::max(expected.size(), m.per_function.size()); ++fn) {
    const uint64_t want = fn < expected.size() ? expected[fn] : 0;
    const uint64_t got = fn < m.per_function.size() ? m.per_function[fn].TotalRequests() : 0;
    if (got != want) {
      result.Fail(want > got ? want - got : got - want,
                  "function " + std::to_string(fn) + ": start types sum to " +
                      std::to_string(got) + ", trace has " + std::to_string(want));
    }
    if (fn < m.per_function.size()) {
      dedup_starts += m.per_function[fn].dedup_starts;
    }
  }
  if (dedup_starts != dedup_ms.size()) {
    result.Fail(1, "request records hold " + std::to_string(dedup_ms.size()) +
                       " dedup starts, counters " + std::to_string(dedup_starts));
  }
}

struct Rep {
  double setup_s = 0;
  double run_s = 0;
  uint64_t work = 0;  // rate units completed by Run()
  uint64_t requests = 0;
  std::string digest;
};

// The sim metrics, and in trace mode the per-layer work counts, of one
// replay. Called on the check pass only: the values are the same on every
// repetition (the digest says so).
void ReportOutputs(const RunMetrics& m, uint64_t requests, const std::vector<double>& dedup_ms,
                   const SimStats& sim, bool trace, Result& result) {
  const std::string dedup_basis = std::to_string(dedup_ms.size()) + " dedup starts";
  result.Add("dedup_startup_p50_ms", Kind::kSim, "ms", "lower", dedup_basis).samples = {
      Percentile(dedup_ms, 0.50)};
  result.Add("dedup_startup_p99_ms", Kind::kSim, "ms", "lower", dedup_basis).samples = {
      Percentile(dedup_ms, 0.99)};
  result.Add("cold_start_rate", Kind::kSim, "ratio", "lower",
             std::to_string(requests) + " requests")
      .samples = {static_cast<double>(m.TotalColdStarts()) / static_cast<double>(requests)};
  result.Add("memory_saved_mb", Kind::kSim, "MB", "higher",
             std::to_string(m.dedup_ops) + " dedup ops")
      .samples = {MemorySavedMb(m)};
  result.Add("mean_memory_mb", Kind::kSim, "MB", "lower",
             std::to_string(m.memory_timeline.size()) + " memory samples")
      .samples = {m.MeanMemoryMb()};
  if (!trace) {
    return;
  }
  const double lookups = static_cast<double>(m.registry.lookups);
  result.AddLayer("sim.events_per_request", "count",
                  static_cast<double>(sim.fired) / static_cast<double>(requests));
  result.AddLayer("sim.max_live_events", "count", static_cast<double>(sim.max_live));
  result.AddLayer("dedupagent.dedup_ops", "count", static_cast<double>(m.dedup_ops));
  result.AddLayer("dedupagent.restores", "count", static_cast<double>(m.restores));
  result.AddLayer("registry.lookups", "count", lookups);
  result.AddLayer("dedupagent.dedup_yield", "ratio",
                  lookups > 0 ? static_cast<double>(DedupPagesDeduped(m)) / lookups : 0);
  result.AddLayer("registry.key_hits_per_lookup", "ratio",
                  lookups > 0 ? static_cast<double>(m.registry.key_hits) / lookups : 0);
  result.AddLayer("rdma.cache_hit_ratio", "ratio", m.rdma.CacheHitRate());
  result.AddLayer("rdma.remote_reads", "count", static_cast<double>(m.rdma.remote_reads));
  result.AddLayer("net.messages", "count", static_cast<double>(m.transport.TotalMessages()));
  result.AddLayer("net.bytes", "bytes", static_cast<double>(m.transport.TotalBytes()));
  result.AddLayer("net.dropped", "count", static_cast<double>(m.transport.TotalDropped()));
  result.AddLayer("dedupagent.ws_hit_ratio", "ratio",
                  m.lazy_restore.ws_touched_pages > 0 ? m.lazy_restore.HitRate() : 0);
  result.AddLayer("store.cold_fetches", "count", static_cast<double>(m.store.cold_fetches));
  result.AddLayer("platform.evictions", "count", static_cast<double>(m.evictions));
}

// One setup + Run() at `pool_width`. `report` makes it the check pass: its
// outputs go into the result (the RunMetrics die with this call, so no
// repetition carries another's memory).
Rep RunOnce(const CampaignSpec& spec, const RunConfig& config, size_t pool_width, bool report,
            Result& result, SpanLog* spans) {
  Rep rep;
  ScopedSpan rep_span(spans, "campaign.rep");
  const Clock::time_point t0 = Clock::now();
  std::vector<TraceEvent> trace;
  {
    ScopedSpan span(spans, "workload.generate", rep_span.id());
    trace = TraceFor(spec, config.seed);
  }
  std::optional<ServerlessPlatform> platform;
  {
    ScopedSpan span(spans, "platform.construct", rep_span.id());
    platform.emplace(OptionsFor(spec, pool_width));
  }
  rep.setup_s = SecondsSince(t0);
  const Clock::time_point t1 = Clock::now();
  RunMetrics m;
  {
    ScopedSpan span(spans, "platform.run", rep_span.id());
    m = platform->Run(trace);
  }
  rep.run_s = SecondsSince(t1);
  const std::vector<double> dedup_ms = DedupStartupMs(m);
  CheckOutputs(trace, m, dedup_ms, result);
  result.attempted += trace.size();
  rep.requests = trace.size();
  rep.work = spec.rate_in_dedup_pages ? m.registry.lookups : trace.size();
  rep.digest = BehaviourDigest(m, dedup_ms);
  if (report) {
    ReportOutputs(m, rep.requests, dedup_ms, platform->sim().stats(), config.trace, result);
  }
  return rep;
}

void RunCampaign(const CampaignSpec& spec, const RunConfig& config, Result& result,
                 SpanLog* spans) {
  if (config.check_pass) {
    result.behaviour_digest =
        RunOnce(spec, config, config.check_pool_width, /*report=*/true, result, nullptr).digest;
    return;
  }

  // Run() interleaves the dedup write and read paths and is timed as one
  // region, so both path rates are its rate.
  const std::string basis = spec.rate_in_dedup_pages
                                ? "dedup-path pages (registry page lookups) per host s of Run()"
                                : "simulated requests per host s of Run()";
  Metric& write_path = result.Add("write_path_per_s", Kind::kHost, "1/s", "higher", basis);
  Metric& read_path = result.Add("read_path_per_s", Kind::kHost, "1/s", "higher", basis);
  Metric& requests_per_s = result.Add("requests_per_s", Kind::kHost, "1/s", "higher",
                                      "simulated requests per host s of Run()");
  RunTimedLoop(
      config,
      {.setup_basis = "trace generation + platform construction",
       .rss_basis = "process peak RSS after one replay",
       .rep =
           [&](SpanLog* rep_spans) {
             const Rep rep =
                 RunOnce(spec, config, kTimedPoolWidth, /*report=*/false, result, rep_spans);
             if (rep_spans == nullptr) {
               write_path.samples.push_back(static_cast<double>(rep.work) / rep.run_s);
               read_path.samples.push_back(static_cast<double>(rep.work) / rep.run_s);
               requests_per_s.samples.push_back(static_cast<double>(rep.requests) / rep.run_s);
             }
             return Repetition{.setup_s = rep.setup_s,
                               .timed_s = rep.run_s,
                               .ops = rep.requests,
                               .digest = rep.digest};
           },
       .setup =
           [&] {
             return std::make_shared<
                 std::pair<std::vector<TraceEvent>, std::unique_ptr<ServerlessPlatform>>>(
                 TraceFor(spec, config.seed),
                 std::make_unique<ServerlessPlatform>(OptionsFor(spec, kTimedPoolWidth)));
           }},
      result, spans);
}

}  // namespace

void RunMedesP2Campaign(const RunConfig& config, Result& result, SpanLog* spans) {
  RunCampaign({.policy = PolicyKind::kMedes,
               .nodes = 10,
               .rate_in_dedup_pages = true,
               .max_requests = 0},
              config, result, spans);
}

void RunKeepAliveCampaign(const RunConfig& config, Result& result, SpanLog* spans) {
  RunCampaign({.policy = PolicyKind::kFixedKeepAlive,
               .nodes = 100,
               .rate_in_dedup_pages = false,
               .max_requests = kKeepAliveRequests},
              config, result, spans);
}

}  // namespace medes::perfbench
