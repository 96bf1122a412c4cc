#include "platform/metrics.h"

#include <gtest/gtest.h>

namespace medes {
namespace {

RunMetrics MakeMetrics() {
  RunMetrics m;
  m.per_function.resize(10);
  return m;
}

// Appends one request of `function` with the given startup and e2e (ms).
void AddRequest(RunMetrics& m, FunctionId function, StartType start, int startup_ms, int e2e_ms) {
  RequestRecord r;
  r.function = function;
  r.start = start;
  r.startup = startup_ms * kMillisecond;
  r.e2e = e2e_ms * kMillisecond;
  m.requests.push_back(r);
}

TEST(MetricsTest, EmptyRunIsSafe) {
  RunMetrics m = MakeMetrics();
  EXPECT_EQ(m.TotalColdStarts(), 0u);
  EXPECT_EQ(m.TotalRequests(), 0u);
  EXPECT_DOUBLE_EQ(m.MeanMemoryMb(), 0.0);
  EXPECT_DOUBLE_EQ(m.MedianMemoryMb(), 0.0);
  EXPECT_DOUBLE_EQ(m.MeanSandboxesInMemory(), 0.0);
}

TEST(MetricsTest, ColdStartAggregation) {
  RunMetrics m = MakeMetrics();
  m.per_function[0].cold_starts = 3;
  m.per_function[4].cold_starts = 7;
  EXPECT_EQ(m.TotalColdStarts(), 10u);
}

TEST(MetricsTest, MemoryTimelineStatistics) {
  RunMetrics m = MakeMetrics();
  for (double v : {10.0, 20.0, 90.0}) {
    MemorySample s;
    s.used_mb = v;
    s.sandboxes = static_cast<uint64_t>(v);
    m.memory_timeline.push_back(s);
  }
  EXPECT_DOUBLE_EQ(m.MeanMemoryMb(), 40.0);
  EXPECT_DOUBLE_EQ(m.MedianMemoryMb(), 20.0);
  EXPECT_DOUBLE_EQ(m.MeanSandboxesInMemory(), 40.0);
}

TEST(MetricsTest, FunctionPercentile) {
  RunMetrics m = MakeMetrics();
  for (int i = 1; i <= 100; ++i) {
    AddRequest(m, 2, StartType::kWarm, 0, i);
    AddRequest(m, 5, StartType::kWarm, 0, 1000 + i);  // another function's samples
  }
  EXPECT_DOUBLE_EQ(m.FunctionE2ePercentileMs(2, 0.5), 50.0);
  EXPECT_DOUBLE_EQ(m.FunctionE2ePercentileMs(2, 0.999), 100.0);
}

TEST(MetricsTest, ImprovementFactorsMatchedStreams) {
  RunMetrics a = MakeMetrics(), b = MakeMetrics();
  for (int i = 0; i < 5; ++i) {
    RequestRecord r;
    r.function = 0;
    r.arrival = SimTime{i};
    r.e2e = SimDuration{100};
    a.requests.push_back(r);
    r.e2e = SimDuration{250};
    b.requests.push_back(r);
  }
  auto factors = ImprovementFactors(a, b);
  ASSERT_EQ(factors.size(), 5u);
  for (double f : factors) {
    EXPECT_DOUBLE_EQ(f, 2.5);
  }
}

TEST(MetricsTest, FunctionPercentileExtremesAndEmpty) {
  RunMetrics m = MakeMetrics();
  // Empty recorder: percentile is defined as 0 at any p.
  EXPECT_DOUBLE_EQ(m.FunctionE2ePercentileMs(3, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(m.FunctionE2ePercentileMs(3, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(m.FunctionE2ePercentileMs(3, 1.0), 0.0);
  for (int i = 1; i <= 100; ++i) {
    AddRequest(m, 3, StartType::kCold, 0, i);
  }
  // p=0 pins to the minimum sample, p=1 to the maximum.
  EXPECT_DOUBLE_EQ(m.FunctionE2ePercentileMs(3, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(m.FunctionE2ePercentileMs(3, 1.0), 100.0);
}

TEST(MetricsTest, StartupPercentileIsNearestRankPerStartType) {
  RunMetrics m = MakeMetrics();
  EXPECT_DOUBLE_EQ(m.StartupPercentileMs(StartType::kDedup, 0.99), 0.0);
  for (int i = 1; i <= 200; ++i) {
    AddRequest(m, i % 10, StartType::kDedup, i, i + 3000);
    AddRequest(m, i % 10, StartType::kCold, 5000 + i, 8000 + i);
  }
  // Nearest rank: ceil(0.99 * 200) = 198th smallest of 1..200.
  EXPECT_DOUBLE_EQ(m.StartupPercentileMs(StartType::kDedup, 0.99), 198.0);
  EXPECT_DOUBLE_EQ(m.StartupPercentileMs(StartType::kDedup, 1.0), 200.0);
  EXPECT_DOUBLE_EQ(m.StartupPercentileMs(StartType::kCold, 0.5), 5100.0);
  EXPECT_DOUBLE_EQ(m.StartupPercentileMs(StartType::kWarm, 0.5), 0.0);
}

TEST(MetricsTest, ImprovementFactorsRejectLengthMismatch) {
  RunMetrics a = MakeMetrics(), b = MakeMetrics();
  RequestRecord r;
  r.function = 0;
  r.arrival = SimTime{1};
  r.e2e = SimDuration{10};
  a.requests.push_back(r);
  a.requests.push_back(r);
  b.requests.push_back(r);  // one run has more requests than the other
  EXPECT_THROW(ImprovementFactors(a, b), std::invalid_argument);
  EXPECT_THROW(ImprovementFactors(b, a), std::invalid_argument);
}

TEST(MetricsTest, ImprovementFactorsSkipZeroLatencyRequests) {
  RunMetrics a = MakeMetrics(), b = MakeMetrics();
  RequestRecord r;
  r.function = 0;
  r.arrival = SimTime{1};
  r.e2e = SimDuration{0};  // degenerate record: excluded rather than dividing by zero
  a.requests.push_back(r);
  r.e2e = SimDuration{50};
  b.requests.push_back(r);
  EXPECT_TRUE(ImprovementFactors(a, b).empty());
}

TEST(MetricsTest, StartTypeToStringRoundTrip) {
  for (StartType type : {StartType::kWarm, StartType::kDedup, StartType::kCold}) {
    const auto parsed = StartTypeFromString(ToString(type));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, type);
  }
  EXPECT_FALSE(StartTypeFromString("lukewarm").has_value());
  EXPECT_FALSE(StartTypeFromString("").has_value());
  EXPECT_FALSE(StartTypeFromString("Warm").has_value());
}

TEST(MetricsTest, ImprovementFactorsRejectMisalignment) {
  RunMetrics a = MakeMetrics(), b = MakeMetrics();
  RequestRecord r;
  r.function = 0;
  r.arrival = SimTime{1};
  r.e2e = SimDuration{10};
  a.requests.push_back(r);
  r.arrival = SimTime{2};  // different arrival time => different trace
  b.requests.push_back(r);
  EXPECT_THROW(ImprovementFactors(a, b), std::invalid_argument);
  b.requests.push_back(r);
  EXPECT_THROW(ImprovementFactors(a, b), std::invalid_argument);
}

TEST(MetricsTest, FunctionMetricsTotals) {
  FunctionMetrics f;
  f.warm_starts = 5;
  f.dedup_starts = 3;
  f.cold_starts = 2;
  EXPECT_EQ(f.TotalRequests(), 10u);
}

}  // namespace
}  // namespace medes
