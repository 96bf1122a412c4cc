// Metrics collected from a platform run — everything the paper's evaluation
// section reports is derivable from these.
#ifndef MEDES_PLATFORM_METRICS_H_
#define MEDES_PLATFORM_METRICS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/histogram.h"
#include "common/time.h"
#include "controller/medes_controller.h"
#include "dedupagent/dedup_agent.h"
#include "memstate/profiles.h"
#include "net/transport.h"
#include "rdma/rdma.h"
#include "registry/distributed_registry.h"
#include "registry/fingerprint_registry.h"
#include "registry/registry_recovery.h"
#include "sim/simulation.h"
#include "store/state_store.h"

namespace medes {

enum class StartType {
  kWarm,
  kDedup,
  kCold,
};

const char* ToString(StartType type);

// Inverse of ToString (exact match); nullopt for anything unrecognised.
std::optional<StartType> StartTypeFromString(std::string_view name);

struct RequestRecord {
  FunctionId function = -1;
  SimTime arrival;
  StartType start = StartType::kCold;
  SimDuration startup;  // latency before execution begins
  SimDuration e2e;      // startup + execution
};

struct FunctionMetrics {
  uint64_t warm_starts = 0;
  uint64_t dedup_starts = 0;
  uint64_t cold_starts = 0;
  // Restore (dedup start) breakdown, Fig. 8's three components.
  SampleRecorder restore_read_ms;
  SampleRecorder restore_compute_ms;
  SampleRecorder restore_criu_ms;
  // Dedup op results.
  uint64_t dedup_ops = 0;
  double total_saved_mb = 0;
  double total_dedup_op_ms = 0;
  uint64_t total_patch_bytes = 0;   // at image scale
  uint64_t total_pages_deduped = 0;

  uint64_t TotalRequests() const { return warm_starts + dedup_starts + cold_starts; }
};

struct MemorySample {
  SimTime time;
  double used_mb = 0;
  uint64_t sandboxes = 0;
  uint64_t warm = 0;
  uint64_t dedup = 0;
  uint64_t bases = 0;
  // Memory held by *idle warm* sandboxes, per function — the portion a
  // redundancy-elimination pass could shrink (used by the Fig. 2 estimate).
  std::vector<double> idle_warm_mb_per_function;
};

struct RunMetrics {
  std::vector<RequestRecord> requests;
  std::vector<FunctionMetrics> per_function;  // indexed by FunctionId
  std::vector<MemorySample> memory_timeline;

  uint64_t sandboxes_spawned = 0;
  uint64_t evictions = 0;
  uint64_t overcommit_events = 0;

  uint64_t same_function_pages = 0;
  uint64_t cross_function_pages = 0;

  // Dedup-agent totals, copied from DedupAgent::stats() at the end of the run
  // (the agent is their only tally).
  uint64_t dedup_ops = 0;
  uint64_t restores = 0;
  uint64_t sandboxes_deduped = 0;  // == dedup_ops: each op is one warm->dedup transition
  uint64_t base_designations = 0;
  LazyRestoreStats lazy_restore;

  RegistryStats registry;
  RdmaStats rdma;
  // Per-message-type counters and latency histograms from the shared
  // cluster transport (lookups, inserts, base reads, control decisions).
  TransportStats transport;
  // State-store tier accounting (hot/cold residency, SSD fetch costs).
  // Backend-independent by design: the memory and persistent backends report
  // identical StoreStats for the same run, so the determinism pin covers this
  // field too. Durability-only counters live in store::DurabilityStats and
  // are deliberately excluded.
  store::StoreStats store;

  uint64_t TotalColdStarts() const;
  uint64_t TotalRequests() const;
  double MeanMemoryMb() const;
  double MedianMemoryMb() const;
  double MeanSandboxesInMemory() const;

  // Nearest-rank p-quantile (SampleRecorder::Percentile) over `requests`, in
  // ms: end-to-end latency of one function's requests, and startup latency
  // of one start type's. 0 when no request matches.
  double FunctionE2ePercentileMs(FunctionId function, double p) const;
  double StartupPercentileMs(StartType start, double p) const;
};

// Distribution of per-request improvement factors (baseline e2e / medes e2e),
// matched request-by-request; both runs must come from the same trace.
std::vector<double> ImprovementFactors(const RunMetrics& medes, const RunMetrics& baseline);

// Publishing into obs::MetricsRegistry::Default(). Each module's stats
// struct is the one tally of its numbers; a finished run adds each struct's
// totals into the registry's counters and histograms once (gauges take the
// value), under the metric names the Prometheus export carries. Call each
// overload once per object, when its run ends; counters then sum over the
// runs of one process. Every overload returns at once unless
// obs::MetricsEnabled(). ServerlessPlatform::Run publishes everything it
// owns; code that drives modules directly publishes them itself.
//
// The RunMetrics overload covers the platform's own series: requests by
// start type, e2e and startup latency (from `requests`), spawns, evictions,
// overcommits, and the memory-level gauges (from memory_timeline.back()).
void PublishMetrics(const RunMetrics& metrics);
void PublishMetrics(const DedupAgentStats& stats);
void PublishMetrics(const RdmaStats& stats);
void PublishMetrics(const RegistryStats& stats);
void PublishMetrics(const DistributedRegistryStats& stats);
void PublishMetrics(const TransportStats& stats);
void PublishMetrics(const RecoveryReport& report);
void PublishMetrics(const ControllerStats& stats);
void PublishMetrics(const SimStats& stats);

}  // namespace medes

#endif  // MEDES_PLATFORM_METRICS_H_
