// Capacity campaign: how far does the event core scale?
//
// Sweeps cluster size (10/50/100 worker nodes) with request rate scaled
// proportionally, under the controller's P1 (latency) and P2 (combined)
// objectives, and reports end-to-end simulator throughput: events/sec, wall
// seconds, cold-start rate, dedup-start P99 startup latency, memory saved,
// and cross-node transport bytes per configuration.
//
// A synthetic scheduler loop then measures the event engine alone: chained
// events at sub-second, 30 s and 10 min delays, each arming a timer that its
// successor cancels (a third of all schedules), reported as best-of-3
// fired events/sec.
//
// Usage: cluster_scale [output.json]        (default: BENCH_cluster_scale.json)
// Env:   MEDES_CLUSTER_SCALE_MODE=smoke     CI perf-smoke config (small sweep
//                                           and loop; same JSON schema)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"

using namespace medes;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct SweepConfig {
  int nodes = 0;
  PolicyObjective objective = PolicyObjective::kLatency;
  const char* objective_name = "P1_latency";
  double rate_scale = 0;
  SimDuration duration;
};

struct SweepResult {
  SweepConfig config;
  uint64_t requests = 0;
  uint64_t sim_events = 0;
  double wall_seconds = 0;
  double events_per_sec = 0;
  double cold_start_rate = 0;
  double p99_dedup_startup_ms = 0;  // nearest rank; 0 without dedup starts
  double memory_saved_mb = 0;
  uint64_t transport_bytes = 0;
};

PlatformOptions OptionsFor(const SweepConfig& c) {
  PlatformOptions options = bench::EvalOptions(PolicyKind::kMedes);
  options.cluster.num_nodes = c.nodes;
  options.medes.objective = c.objective;
  return options;
}

std::vector<TraceEvent> TraceFor(const SweepConfig& c) {
  TraceOptions topts;
  topts.duration = c.duration;
  topts.rate_scale = c.rate_scale;
  return GenerateTrace(DefaultAzurePatterns(), topts);
}

double TotalSavedMb(const RunMetrics& m) {
  double total = 0;
  for (const FunctionMetrics& f : m.per_function) {
    total += f.total_saved_mb;
  }
  return total;
}

uint64_t TotalTransportBytes(const RunMetrics& m) {
  uint64_t total = 0;
  for (const MessageStats& s : m.transport.by_type) {
    total += s.bytes;
  }
  return total;
}

// One end-to-end platform run.
SweepResult RunSweepPoint(const SweepConfig& c) {
  const std::vector<TraceEvent> trace = TraceFor(c);
  ServerlessPlatform platform(OptionsFor(c));
  const auto t0 = std::chrono::steady_clock::now();
  const RunMetrics metrics = platform.Run(trace);
  const double wall = SecondsSince(t0);

  SweepResult r;
  r.config = c;
  r.requests = metrics.TotalRequests();
  r.sim_events = platform.sim().stats().fired;
  r.wall_seconds = wall;
  r.events_per_sec = wall > 0 ? static_cast<double>(r.sim_events) / wall : 0;
  r.cold_start_rate = r.requests > 0 ? static_cast<double>(metrics.TotalColdStarts()) /
                                           static_cast<double>(r.requests)
                                     : 0;
  r.p99_dedup_startup_ms = metrics.StartupPercentileMs(StartType::kDedup, 0.99);
  r.memory_saved_mb = TotalSavedMb(metrics);
  r.transport_bytes = TotalTransportBytes(metrics);
  return r;
}

// The synthetic scheduler loop. `actors` chains run concurrently; every
// chain fire draws its successor's delay from the mix, arms a timer due
// after that successor (so the successor always cancels it, as a reused
// sandbox cancels its idle timer), and schedules a one-shot event that
// fires and does nothing (a request completion). Chains stop after
// `chain_fires` fires in total and the queue drains.
class SchedulerLoop {
 public:
  SchedulerLoop(int actors, uint64_t chain_fires)
      : timers_(static_cast<size_t>(actors), 0), remaining_(chain_fires) {
    for (int a = 0; a < actors; ++a) {
      sim_.Schedule(SimTime{} + Delay(), [this, a] { Chain(a); });
    }
  }

  void Run() { sim_.Run(); }
  const Simulation& sim() const { return sim_; }

 private:
  // Sub-second, 30 s or 10 min, one third each.
  SimDuration Delay() {
    switch (rng_.Below(3)) {
      case 0:
        return SimDuration{rng_.Range(1, kSecond.value() - 1)};
      case 1:
        return 30 * kSecond;
      default:
        return 10 * kMinute;
    }
  }

  void Chain(int a) {
    EventId& timer = timers_[static_cast<size_t>(a)];
    sim_.Cancel(timer);
    timer = 0;
    if (remaining_ == 0) {
      return;
    }
    --remaining_;
    const SimDuration next = Delay();
    sim_.ScheduleAfter(next, [this, a] { Chain(a); });
    timer = sim_.ScheduleAfter(next + Delay(), [] {});
    sim_.ScheduleAfter(Delay(), [] {});
  }

  Simulation sim_;
  Rng rng_{0x5c4ed};
  std::vector<EventId> timers_;
  uint64_t remaining_;
};

struct SchedulerResult {
  int actors = 0;
  uint64_t chain_fires = 0;
  int iters = 0;
  SimStats stats;
  double wall_seconds = 0;  // best of `iters`
  double events_per_sec = 0;
};

SchedulerResult TimeSchedulerLoop(int actors, uint64_t chain_fires, int iters) {
  SchedulerResult best;
  best.actors = actors;
  best.chain_fires = chain_fires;
  best.iters = iters;
  best.wall_seconds = 1e300;
  for (int i = 0; i < iters; ++i) {
    SchedulerLoop loop(actors, chain_fires);
    const auto t0 = std::chrono::steady_clock::now();
    loop.Run();
    const double wall = SecondsSince(t0);
    PublishMetrics(loop.sim().stats());
    if (wall < best.wall_seconds) {
      best.wall_seconds = wall;
      best.stats = loop.sim().stats();
    }
  }
  best.events_per_sec =
      best.wall_seconds > 0 ? static_cast<double>(best.stats.fired) / best.wall_seconds : 0;
  return best;
}

void WriteSweepResult(bench::JsonWriter& w, const SweepResult& r) {
  w.BeginObject()
      .Field("nodes", r.config.nodes)
      .Field("objective", r.config.objective_name)
      .Field("rate_scale", r.config.rate_scale)
      .Field("trace_duration_s", ToSeconds(r.config.duration), 0)
      .Field("requests", r.requests)
      .Field("sim_events", r.sim_events)
      .Field("wall_seconds", r.wall_seconds, 3)
      .Field("events_per_sec", r.events_per_sec, 0)
      .Field("cold_start_rate", r.cold_start_rate, 4)
      .Field("p99_dedup_startup_ms", r.p99_dedup_startup_ms)
      .Field("memory_saved_mb", r.memory_saved_mb)
      .Field("transport_bytes", r.transport_bytes)
      .EndObject();
}

}  // namespace

int main(int argc, char** argv) {
  bench::StartWallClock();
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_cluster_scale.json";
  const char* mode_env = std::getenv("MEDES_CLUSTER_SCALE_MODE");
  const bool smoke = mode_env != nullptr && std::string(mode_env) == "smoke";

  bench::Header("cluster_scale: event-core capacity campaign",
                "node sweep under P1/P2 + synthetic scheduler loop");

  // Rate scales with cluster size so per-node load matches the paper's
  // 19-worker evaluation setup at its 5x magnification.
  std::vector<SweepConfig> sweep;
  const auto add = [&sweep](int nodes, PolicyObjective obj, const char* name,
                            SimDuration duration) {
    SweepConfig c;
    c.nodes = nodes;
    c.objective = obj;
    c.objective_name = name;
    c.rate_scale = 5.0 * static_cast<double>(nodes) / 19.0;
    c.duration = duration;
    sweep.push_back(c);
  };
  if (smoke) {
    add(4, PolicyObjective::kLatency, "P1_latency", 10 * kMinute);
    add(4, PolicyObjective::kCombined, "P2_combined", 10 * kMinute);
  } else {
    for (int nodes : {10, 50, 100}) {
      add(nodes, PolicyObjective::kLatency, "P1_latency", kHour);
      add(nodes, PolicyObjective::kCombined, "P2_combined", kHour);
    }
  }

  std::vector<SweepResult> results;
  for (const SweepConfig& c : sweep) {
    const SweepResult r = RunSweepPoint(c);
    std::printf("nodes=%-3d %-11s requests=%-8" PRIu64 " events=%-9" PRIu64
                " wall=%.2fs events/s=%.0f cold=%.3f dedup_p99=%.1fms\n",
                r.config.nodes, r.config.objective_name, r.requests, r.sim_events, r.wall_seconds,
                r.events_per_sec, r.cold_start_rate, r.p99_dedup_startup_ms);
    results.push_back(r);
  }

  bench::Section("scheduler loop (no-op payloads, best of 3)");
  const SchedulerResult sched =
      TimeSchedulerLoop(/*actors=*/4096, /*chain_fires=*/smoke ? 200'000 : 1'000'000, /*iters=*/3);
  // Every schedule either fired or was cancelled once the queue drained.
  const bool sched_drained =
      sched.stats.fired + sched.stats.cancelled == sched.stats.scheduled;
  std::printf("scheduled=%" PRIu64 " cancelled=%" PRIu64 " fired=%" PRIu64
              " wall=%.3fs events/s=%.0f drained=%s\n",
              sched.stats.scheduled, sched.stats.cancelled, sched.stats.fired,
              sched.wall_seconds, sched.events_per_sec, sched_drained ? "true" : "false");

  bench::JsonWriter w;
  w.BeginObject();
  bench::WriteMetadata(w, "cluster_scale");
  w.Field("mode", smoke ? "smoke" : "full");
  w.BeginArray("sweep");
  for (const SweepResult& r : results) {
    WriteSweepResult(w, r);
  }
  w.EndArray();
  w.BeginObject("scheduler")
      .Field("actors", sched.actors)
      .Field("chain_fires", sched.chain_fires)
      .Field("iters", sched.iters)
      .Field("scheduled", sched.stats.scheduled)
      .Field("cancelled", sched.stats.cancelled)
      .Field("fired", sched.stats.fired)
      .Field("max_live", sched.stats.max_live)
      .Field("wall_seconds", sched.wall_seconds, 4)
      .Field("events_per_sec", sched.events_per_sec, 0)
      .Field("drained", sched_drained)
      .EndObject();
  w.EndObject();

  bench::WriteTextFile(out_path, w.str() + "\n");
  bench::ExportObservability("cluster_scale");
  return sched_drained ? 0 : 1;
}
