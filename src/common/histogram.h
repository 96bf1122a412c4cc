// Simple value recorders used for experiment metrics: exact percentiles over
// recorded samples, and the shared power-of-two bucketing convention used by
// every order-independent histogram in the tree (LatencyHistogram,
// obs::Histogram).
#ifndef MEDES_COMMON_HISTOGRAM_H_
#define MEDES_COMMON_HISTOGRAM_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/time.h"

namespace medes {

// ---- Power-of-two bucketing ----------------------------------------------
//
// Bucket i counts values whose bit width is i, i.e. [2^(i-1), 2^i - 1];
// bucket 0 counts values <= 0. Bucket *counts* are order-independent sums, so
// concurrent recording in any interleaving yields identical contents — the
// property the transport stats and the obs metrics determinism contracts are
// built on.

inline constexpr size_t kPow2HistogramBuckets = 22;

inline size_t Pow2BucketIndex(int64_t value) {
  if (value <= 0) {
    return 0;
  }
  const auto width = static_cast<size_t>(std::bit_width(static_cast<uint64_t>(value)));
  return width < kPow2HistogramBuckets ? width : kPow2HistogramBuckets - 1;
}

// Inclusive upper bound of a bucket; bucket 0 holds <= 0.
inline constexpr int64_t Pow2BucketUpperBound(size_t bucket) {
  if (bucket == 0) {
    return 0;
  }
  return static_cast<int64_t>((1ull << bucket) - 1);
}

// Order-independent latency histogram over the power-of-two buckets, plus
// the sum of every recorded value. Unlike SampleRecorder it stores no
// per-sample state, so recording in any order yields identical contents.
// Module stats structs hold these as their only tally of modelled stage
// durations; the obs exporter publishes them as Prometheus histograms.
class LatencyHistogram {
 public:
  static constexpr size_t kNumBuckets = kPow2HistogramBuckets;

  void Record(SimDuration value) {
    ++buckets_[BucketIndex(value)];
    sum_ += value;
  }
  uint64_t Count(size_t bucket) const { return buckets_.at(bucket); }
  uint64_t TotalCount() const {
    uint64_t total = 0;
    for (uint64_t b : buckets_) {
      total += b;
    }
    return total;
  }
  SimDuration Sum() const { return sum_; }
  // Inclusive upper bound of a bucket (us); bucket 0 holds <= 0.
  static SimDuration BucketUpperBound(size_t bucket) {
    return SimDuration{Pow2BucketUpperBound(bucket)};
  }
  static size_t BucketIndex(SimDuration value) { return Pow2BucketIndex(value.value()); }

  bool operator==(const LatencyHistogram&) const = default;

 private:
  std::array<uint64_t, kNumBuckets> buckets_ = {};
  SimDuration sum_;
};

// Records every sample; answers exact order statistics. Fine for the scale of
// our experiments (at most a few million samples per run).
class SampleRecorder {
 public:
  void Record(double v) { samples_.push_back(v); }

  size_t Count() const { return samples_.size(); }
  bool Empty() const { return samples_.empty(); }

  double Sum() const;
  double Mean() const;
  double Min() const;
  double Max() const;

  // Exact p-quantile (p in [0, 1]) using the nearest-rank method.
  // Returns 0 for an empty recorder.
  double Percentile(double p) const;
  double Median() const { return Percentile(0.5); }

  const std::vector<double>& samples() const { return samples_; }

 private:
  // Percentile sorts lazily into this cache.
  mutable std::vector<double> sorted_;
  std::vector<double> samples_;
};

}  // namespace medes

#endif  // MEDES_COMMON_HISTOGRAM_H_
