// Metrics registry: named Counter / Gauge / Histogram instruments.
//
// Each number the simulator exports has one tally: the stats struct of the
// module that counts it (DedupAgentStats, RdmaStats, RegistryStats, ...).
// Nothing outside src/obs records into these instruments per event. Instead
// platform/metrics.h's PublishMetrics overloads add a finished run's struct
// totals into the registry once, when the run ends:
//
//   obs::MetricsRegistry::Default()
//       .GetCounter("medes_rdma_cache_hits_total", "Base-page cache hits")
//       .Add(stats.cache_hits);
//
// Counters accumulate across the runs of one process; gauges hold the last
// published value; Histogram::Merge adds a struct's LatencyHistogram.
// Recording is gated on MetricsEnabled() (obs/obs.h) inside the instrument.
// Registered instruments live for the process lifetime at stable addresses.
//
// Determinism contract: counters and gauges are plain sums, and histograms
// use the shared power-of-two bucket convention (common/histogram.h), so all
// recorded state is order-independent — concurrent recording in any
// interleaving yields bit-identical snapshots. Snapshot() additionally sorts
// by (name, label), erasing the thread-dependent registration order.
#ifndef MEDES_OBS_METRICS_H_
#define MEDES_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/histogram.h"
#include "common/mutex.h"
#include "common/time.h"
#include "obs/obs.h"

namespace medes::obs {

// Monotonically increasing event count.
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    if (MetricsEnabled()) {
      value_.fetch_add(delta, std::memory_order_relaxed);
    }
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

// Point-in-time signed level (e.g. live sandboxes, pool bytes).
class Gauge {
 public:
  void Set(int64_t value) {
    if (MetricsEnabled()) {
      value_.store(value, std::memory_order_relaxed);
    }
  }
  void Add(int64_t delta) {
    if (MetricsEnabled()) {
      value_.fetch_add(delta, std::memory_order_relaxed);
    }
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

// Order-independent distribution over the shared power-of-two buckets.
// Records integer values (simulation microseconds, bytes, counts).
class Histogram {
 public:
  static constexpr size_t kNumBuckets = kPow2HistogramBuckets;

  void Record(int64_t value) {
    if (MetricsEnabled()) {
      buckets_[Pow2BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
      sum_.fetch_add(value, std::memory_order_relaxed);
    }
  }
  uint64_t BucketCount(size_t bucket) const {
    return buckets_.at(bucket).load(std::memory_order_relaxed);
  }
  // Inclusive upper bound of a bucket; bucket 0 holds <= 0.
  static int64_t BucketUpperBound(size_t bucket) { return Pow2BucketUpperBound(bucket); }
  int64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t TotalCount() const {
    uint64_t total = 0;
    for (const auto& b : buckets_) {
      total += b.load(std::memory_order_relaxed);
    }
    return total;
  }
  // Adds every bucket count and the sum of `h` (a stats struct's tally).
  void Merge(const LatencyHistogram& h) {
    if (MetricsEnabled()) {
      for (size_t b = 0; b < kNumBuckets; ++b) {
        buckets_[b].fetch_add(h.Count(b), std::memory_order_relaxed);
      }
      sum_.fetch_add(h.Sum().value(), std::memory_order_relaxed);
    }
  }
  void Reset() {
    for (auto& b : buckets_) {
      b.store(0, std::memory_order_relaxed);
    }
    sum_.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_ = {};
  std::atomic<int64_t> sum_{0};
};

// ---- Registry ------------------------------------------------------------

enum class InstrumentKind : int { kCounter = 0, kGauge = 1, kHistogram = 2 };

const char* ToString(InstrumentKind kind);

// One instrument's exported state, decoupled from the live atomics.
struct MetricSnapshot {
  InstrumentKind kind = InstrumentKind::kCounter;
  std::string name;
  std::string help;
  std::string label_key;    // empty = unlabelled
  std::string label_value;
  int64_t value = 0;  // counter (non-negative) or gauge reading
  std::array<uint64_t, Histogram::kNumBuckets> buckets = {};  // histogram only
  int64_t sum = 0;                                            // histogram only
  uint64_t count = 0;                                         // histogram only
};

// Process-wide instrument registry. GetCounter/GetGauge/GetHistogram return a
// stable reference, registering the instrument on first use; subsequent calls
// with the same (name, label) pair return the same instrument. Registering
// one name under two different kinds is a programming error and aborts.
//
// Label-cardinality guard: the registry holds at most MaxSeries() distinct
// (name, label) series. Once the cap is reached, further registrations are
// absorbed by a per-kind overflow sink instrument (a valid reference, so
// call sites never crash), each such call bumps DroppedSeries(), a warning
// is printed once, and Snapshot() reports the drop count as the synthetic
// counter `medes_obs_series_dropped_total`. This keeps accidental
// per-request label values from growing the registry without bound.
class MetricsRegistry {
 public:
  static constexpr size_t kDefaultMaxSeries = 4096;

  static MetricsRegistry& Default();

  Counter& GetCounter(std::string_view name, std::string_view help,
                      std::string_view label_key = {}, std::string_view label_value = {})
      EXCLUDES(mu_);
  Gauge& GetGauge(std::string_view name, std::string_view help, std::string_view label_key = {},
                  std::string_view label_value = {}) EXCLUDES(mu_);
  Histogram& GetHistogram(std::string_view name, std::string_view help,
                          std::string_view label_key = {}, std::string_view label_value = {})
      EXCLUDES(mu_);

  // All instruments' current state, sorted by (name, label_value) so the
  // result is independent of registration order. Values are read with relaxed
  // loads; callers wanting exact totals snapshot at a quiescent point.
  std::vector<MetricSnapshot> Snapshot() const EXCLUDES(mu_);

  // Zeroes every instrument's value, keeping registrations (and the stable
  // references call sites cached). Tests and benches call this between runs.
  void ResetValues() EXCLUDES(mu_);

  size_t NumInstruments() const EXCLUDES(mu_);

  // Cardinality guard controls. Lowering the cap below the current series
  // count only affects future registrations; existing series stay live.
  void SetMaxSeries(size_t max_series) EXCLUDES(mu_);
  size_t MaxSeries() const EXCLUDES(mu_);
  // Number of registration calls absorbed by the overflow sinks.
  uint64_t DroppedSeries() const EXCLUDES(mu_);

 private:
  struct Instrument {
    InstrumentKind kind;
    std::string name;
    std::string help;
    std::string label_key;
    std::string label_value;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Instrument& GetOrCreate(InstrumentKind kind, std::string_view name, std::string_view help,
                          std::string_view label_key, std::string_view label_value) REQUIRES(mu_);

  mutable Mutex mu_{"obs metrics registry", LockRank::kObsRegistry};
  // unique_ptr elements keep instrument addresses stable across growth.
  std::vector<std::unique_ptr<Instrument>> instruments_ GUARDED_BY(mu_);
  size_t max_series_ GUARDED_BY(mu_) = kDefaultMaxSeries;
  uint64_t dropped_series_ GUARDED_BY(mu_) = 0;
  bool overflow_warned_ GUARDED_BY(mu_) = false;
  // Per-kind overflow sinks (indexed by InstrumentKind); excluded from
  // Snapshot() and NumInstruments() — only the drop count is exported.
  std::array<std::unique_ptr<Instrument>, 3> overflow_ GUARDED_BY(mu_);
};

}  // namespace medes::obs

#endif  // MEDES_OBS_METRICS_H_
