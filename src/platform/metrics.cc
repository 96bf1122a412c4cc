#include "platform/metrics.h"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "obs/metrics.h"
#include "obs/obs.h"

namespace medes {

const char* ToString(StartType type) {
  switch (type) {
    case StartType::kWarm:
      return "warm";
    case StartType::kDedup:
      return "dedup";
    case StartType::kCold:
      return "cold";
  }
  return "?";
}

std::optional<StartType> StartTypeFromString(std::string_view name) {
  if (name == "warm") {
    return StartType::kWarm;
  }
  if (name == "dedup") {
    return StartType::kDedup;
  }
  if (name == "cold") {
    return StartType::kCold;
  }
  return std::nullopt;
}

uint64_t RunMetrics::TotalColdStarts() const {
  uint64_t total = 0;
  for (const auto& f : per_function) {
    total += f.cold_starts;
  }
  return total;
}

uint64_t RunMetrics::TotalRequests() const { return requests.size(); }

double RunMetrics::MeanMemoryMb() const {
  if (memory_timeline.empty()) {
    return 0;
  }
  double total = 0;
  for (const auto& s : memory_timeline) {
    total += s.used_mb;
  }
  return total / static_cast<double>(memory_timeline.size());
}

double RunMetrics::MedianMemoryMb() const {
  if (memory_timeline.empty()) {
    return 0;
  }
  std::vector<double> values;
  values.reserve(memory_timeline.size());
  for (const auto& s : memory_timeline) {
    values.push_back(s.used_mb);
  }
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

double RunMetrics::MeanSandboxesInMemory() const {
  if (memory_timeline.empty()) {
    return 0;
  }
  double total = 0;
  for (const auto& s : memory_timeline) {
    total += static_cast<double>(s.sandboxes);
  }
  return total / static_cast<double>(memory_timeline.size());
}

double RunMetrics::FunctionE2ePercentileMs(FunctionId function, double p) const {
  SampleRecorder e2e_ms;
  for (const RequestRecord& r : requests) {
    if (r.function == function) {
      e2e_ms.Record(ToMillis(r.e2e));
    }
  }
  return e2e_ms.Percentile(p);
}

double RunMetrics::StartupPercentileMs(StartType start, double p) const {
  SampleRecorder startup_ms;
  for (const RequestRecord& r : requests) {
    if (r.start == start) {
      startup_ms.Record(ToMillis(r.startup));
    }
  }
  return startup_ms.Percentile(p);
}

std::vector<double> ImprovementFactors(const RunMetrics& medes, const RunMetrics& baseline) {
  if (medes.requests.size() != baseline.requests.size()) {
    throw std::invalid_argument("ImprovementFactors: runs are from different traces");
  }
  std::vector<double> factors;
  factors.reserve(medes.requests.size());
  for (size_t i = 0; i < medes.requests.size(); ++i) {
    const auto& m = medes.requests[i];
    const auto& b = baseline.requests[i];
    if (m.arrival != b.arrival || m.function != b.function) {
      throw std::invalid_argument("ImprovementFactors: request streams do not line up");
    }
    if (m.e2e > SimDuration{}) {
      factors.push_back(static_cast<double>(b.e2e.value()) / static_cast<double>(m.e2e.value()));
    }
  }
  return factors;
}

namespace {

obs::Counter& Counter(const char* name, const char* help, const char* label_key = "",
                      const char* label_value = "") {
  return obs::MetricsRegistry::Default().GetCounter(name, help, label_key, label_value);
}

obs::Gauge& Gauge(const char* name, const char* help) {
  return obs::MetricsRegistry::Default().GetGauge(name, help);
}

obs::Histogram& Histogram(const char* name, const char* help, const char* label_key = "",
                          const char* label_value = "") {
  return obs::MetricsRegistry::Default().GetHistogram(name, help, label_key, label_value);
}

}  // namespace

void PublishMetrics(const RunMetrics& metrics) {
  if (!obs::MetricsEnabled()) {
    return;
  }
  std::array<uint64_t, 3> starts = {};
  LatencyHistogram e2e;
  LatencyHistogram startup;
  for (const RequestRecord& r : metrics.requests) {
    ++starts[static_cast<size_t>(r.start)];
    e2e.Record(r.e2e);
    startup.Record(r.startup);
  }
  for (StartType type : {StartType::kWarm, StartType::kDedup, StartType::kCold}) {
    Counter("medes_platform_requests_total", "Requests served, by start type", "start_type",
            ToString(type))
        .Add(starts[static_cast<size_t>(type)]);
  }
  Histogram("medes_platform_e2e_us", "End-to-end request latency (us)").Merge(e2e);
  Histogram("medes_platform_startup_us", "Request startup latency (us)").Merge(startup);
  Counter("medes_platform_spawns_total", "Cold sandbox spawns").Add(metrics.sandboxes_spawned);
  Counter("medes_platform_evictions_total", "Sandboxes/bases evicted").Add(metrics.evictions);
  Counter("medes_platform_overcommit_events_total",
          "Requests admitted despite not fitting in memory")
      .Add(metrics.overcommit_events);
  if (metrics.memory_timeline.empty()) {
    return;
  }
  const MemorySample& last = metrics.memory_timeline.back();
  Gauge("medes_platform_live_sandboxes", "Sandboxes currently alive")
      .Set(static_cast<int64_t>(last.sandboxes));
  Gauge("medes_platform_warm_sandboxes", "Sandboxes currently warm")
      .Set(static_cast<int64_t>(last.warm));
  Gauge("medes_platform_dedup_sandboxes", "Sandboxes currently in dedup state")
      .Set(static_cast<int64_t>(last.dedup));
  Gauge("medes_platform_base_snapshots", "Live base snapshots")
      .Set(static_cast<int64_t>(last.bases));
  Gauge("medes_platform_used_mb", "Cluster memory in use (modelled MB)")
      .Set(static_cast<int64_t>(last.used_mb));
}

void PublishMetrics(const DedupAgentStats& stats) {
  if (!obs::MetricsEnabled()) {
    return;
  }
  Counter("medes_dedup_ops_total", "Completed dedup operations").Add(stats.dedup_ops);
  Counter("medes_restore_ops_total", "Completed restore operations").Add(stats.restore_ops);
  Counter("medes_bases_designated_total", "Sandboxes designated as bases")
      .Add(stats.bases_designated);
  Counter("medes_dedup_pages_deduped_total", "Pages replaced by patches")
      .Add(stats.pages_deduped);
  Counter("medes_dedup_pages_unique_total", "Pages kept whole (no acceptable base)")
      .Add(stats.pages_unique);
  Counter("medes_dedup_patch_bytes_total", "Bytes of accepted patches").Add(stats.patch_bytes);
  Counter("medes_dedup_saved_bytes_total", "Bytes saved versus the warm footprint")
      .Add(stats.saved_bytes);
  Counter("medes_restore_base_pages_read_total", "Base pages fetched during restores")
      .Add(stats.base_pages_read);
  Counter("medes_restore_ws_hit_pages_total", "Touched pages the predicted working set covered")
      .Add(stats.lazy.ws_hit_pages);
  Counter("medes_restore_ws_fault_pages_total",
          "Touched pages outside the predicted working set (demand faults)")
      .Add(stats.lazy.ws_fault_pages);
  Counter("medes_restore_background_pages_total",
          "Patched pages deferred to the background restore phase")
      .Add(stats.lazy.background_deferred_pages);
  const StageLatencies& lat = stats.latency;
  Histogram("medes_dedup_op_us", "Modelled end-to-end dedup time (us)").Merge(lat.dedup_op);
  Histogram("medes_dedup_checkpoint_us", "Dedup stage: checkpoint capture (us)")
      .Merge(lat.dedup_checkpoint);
  Histogram("medes_dedup_lookup_us", "Dedup stage: registry lookups (us)")
      .Merge(lat.dedup_lookup);
  Histogram("medes_dedup_patch_us", "Dedup stage: base reads plus delta encoding (us)")
      .Merge(lat.dedup_patch);
  Histogram("medes_restore_op_us", "Modelled end-to-end restore time (us)")
      .Merge(lat.restore_op);
  Histogram("medes_restore_base_read_us", "Restore stage: base page reading (us)")
      .Merge(lat.restore_base_read);
  Histogram("medes_restore_compute_us", "Restore stage: original page computing (us)")
      .Merge(lat.restore_compute);
  Histogram("medes_restore_criu_us", "Restore stage: sandbox restoration via CRIU (us)")
      .Merge(lat.restore_criu);
  Histogram("medes_restore_critical_us", "Critical-path restore latency before resume (us)")
      .Merge(lat.restore_critical);
  Histogram("medes_restore_fault_us", "Post-resume demand-fault penalty (us)")
      .Merge(lat.restore_fault);
  Histogram("medes_restore_background_us", "Background restore phase duration (us)")
      .Merge(lat.restore_background);
}

void PublishMetrics(const RdmaStats& stats) {
  if (!obs::MetricsEnabled()) {
    return;
  }
  Counter("medes_rdma_cache_hits_total", "Base-page reads served from the local page cache")
      .Add(stats.cache_hits);
  Counter("medes_rdma_cache_misses_total", "Base-page reads that missed the page cache")
      .Add(stats.cache_misses);
  Counter("medes_rdma_cache_evictions_total", "Pages evicted from the base-page cache")
      .Add(stats.cache_evictions);
  Counter("medes_rdma_remote_reads_total", "One-sided base-page reads from a remote node")
      .Add(stats.remote_reads);
  Counter("medes_rdma_remote_bytes_total", "Bytes read one-sided from remote nodes")
      .Add(stats.remote_bytes);
  Counter("medes_rdma_local_reads_total", "Base-page reads served by the local node")
      .Add(stats.local_reads);
  Counter("medes_rdma_local_bytes_total", "Bytes read from the local node")
      .Add(stats.local_bytes);
  Counter("medes_rdma_batch_messages_total",
          "Coalesced base-read messages sent (one per owner node per batch)")
      .Add(stats.batch_messages);
  Counter("medes_rdma_batch_pages_total", "Base pages fetched through batched reads")
      .Add(stats.batch_pages);
}

void PublishMetrics(const RegistryStats& stats) {
  if (!obs::MetricsEnabled()) {
    return;
  }
  Counter("medes_registry_lookups_total", "Per-page fingerprint lookups against the registry")
      .Add(stats.lookups);
  Counter("medes_registry_lookup_batches_total", "Batched lookup round trips to the registry")
      .Add(stats.lookup_batches);
  Counter("medes_registry_inserts_total", "Base-sandbox fingerprint inserts").Add(stats.inserts);
  Counter("medes_registry_insert_keys_total", "Chunk keys carried by base-sandbox inserts")
      .Add(stats.insert_keys);
  Counter("medes_registry_removes_total", "Base sandboxes removed from the registry")
      .Add(stats.removes);
  Histogram("medes_registry_batch_cost_us", "Modelled cost of one batched lookup (us)")
      .Merge(stats.batch_cost);
}

void PublishMetrics(const DistributedRegistryStats& stats) {
  if (!obs::MetricsEnabled()) {
    return;
  }
  Counter("medes_distregistry_failovers_total",
          "Page lookups served by a non-tail replica after a failover")
      .Add(stats.failovers);
  Counter("medes_distregistry_unavailable_lookups_total",
          "Page lookups degraded to empty because a shard had no serving replica")
      .Add(stats.unavailable_lookups);
  Counter("medes_distregistry_dropped_writes_total",
          "Per-shard insert writes lost to partitions or drops")
      .Add(stats.dropped_writes);
  Counter("medes_distregistry_replica_syncs_total", "Completed replica recovery state transfers")
      .Add(stats.replica_syncs);
}

void PublishMetrics(const TransportStats& stats) {
  if (!obs::MetricsEnabled()) {
    return;
  }
  for (size_t i = 0; i < kNumMessageTypes; ++i) {
    const char* type = ToString(static_cast<MessageType>(i));
    const MessageStats& ms = stats.by_type[i];
    Counter("medes_transport_messages_total", "Messages sent over the modelled transport", "type",
            type)
        .Add(ms.messages);
    Counter("medes_transport_bytes_total", "Payload bytes attempted over the modelled transport",
            "type", type)
        .Add(ms.bytes);
    Counter("medes_transport_dropped_total", "Messages lost to the installed fault policy", "type",
            type)
        .Add(ms.dropped);
    Histogram("medes_transport_latency_us", "Modelled cost of delivered messages (us)", "type",
              type)
        .Merge(ms.latency);
  }
}

void PublishMetrics(const RecoveryReport& report) {
  if (!obs::MetricsEnabled()) {
    return;
  }
  Counter("medes_store_recoveries_total", "Registry recoveries driven from the state store")
      .Add(1);
  Counter("medes_store_recovered_sandboxes_total",
          "Base sandboxes restored and validated from the store")
      .Add(report.recovered_sandboxes);
  Counter("medes_store_rejected_sandboxes_total",
          "Recovered base sandboxes rejected by live-sandbox re-validation")
      .Add(report.rejected_sandboxes);
  Counter("medes_store_recovered_pages_total", "Base pages carried by restored sandboxes")
      .Add(report.recovered_pages);
  Counter("medes_store_recovery_torn_bytes_total",
          "Log bytes truncated as torn tails during recovery")
      .Add(report.store_state.torn_bytes);
  Counter("medes_store_recovery_corrupt_records_total",
          "Log records rejected by magic/CRC/sequence checks during recovery")
      .Add(report.store_state.corrupt_records);
}

void PublishMetrics(const ControllerStats& stats) {
  if (!obs::MetricsEnabled()) {
    return;
  }
  for (size_t i = 0; i < kNumIdleDecisions; ++i) {
    Counter("medes_controller_decisions_total", "Idle-expiry decisions issued by the controller",
            "decision", ToString(static_cast<IdleDecision>(i)))
        .Add(stats.decisions[i]);
  }
}

void PublishMetrics(const SimStats& stats) {
  if (!obs::MetricsEnabled()) {
    return;
  }
  Counter("medes_sim_events_fired_total",
          "Simulation events fired across all Simulation instances")
      .Add(stats.fired);
}

}  // namespace medes
