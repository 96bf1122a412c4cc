#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "perfbench.h"

namespace medes::perfbench {
namespace {

constexpr int kMinTimedReps = 3;

}  // namespace

Metric& Result::Add(const std::string& name, Kind kind, const std::string& unit,
                    const std::string& better, const std::string& basis) {
  Metric& m = metrics.emplace_back();
  m.name = name;
  m.kind = kind;
  m.unit = unit;
  m.better = better;
  m.basis = basis;
  return m;
}

void Result::AddLayer(const std::string& name, const std::string& unit, double value) {
  Metric& m = layers.emplace_back();
  m.name = name;
  m.unit = unit;
  m.samples = {value};
}

void Result::Fail(uint64_t ops, const std::string& why) {
  failed += ops;
  errors.push_back(why);
}

void Digest::Add(uint64_t v) {
  uint8_t bytes[sizeof(v)];
  std::memcpy(bytes, &v, sizeof(v));
  Add(std::span<const uint8_t>(bytes, sizeof(bytes)));
}

void Digest::Add(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(v));
  Add(bits);
}

void Digest::Add(std::span<const uint8_t> bytes) { h_ = Fnv1a64(bytes, h_); }

std::string Digest::Hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h_);
  return buf;
}

SpanLog::SpanLog() : origin_(Clock::now()) {}

uint64_t SpanLog::Begin(const char* name, uint64_t parent) {
  Record r;
  r.name = name;
  r.span_id = records_.size() + 1;
  r.parent_id = parent;
  r.trace_id = parent == 0 ? r.span_id : records_[parent - 1].trace_id;
  r.start_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  records_.push_back(std::move(r));
  return records_.back().span_id;
}

void SpanLog::End(uint64_t id, int64_t pages) {
  Record& r = records_[id - 1];
  r.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  r.pages = pages;
}

// Complete ("X") events in start order, ts/dur in whole microseconds as the
// format wants; the exact nanosecond duration rides along in args.dur_ns.
std::string SpanLog::ChromeJson() const {
  std::vector<const Record*> order;
  order.reserve(records_.size());
  for (const Record& r : records_) {
    order.push_back(&r);
  }
  std::stable_sort(order.begin(), order.end(), [](const Record* a, const Record* b) {
    return a->start_ns / 1000 < b->start_ns / 1000;
  });
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[512];
  for (size_t i = 0; i < order.size(); ++i) {
    const Record& r = *order[i];
    const int64_t dur_ns = r.end_ns - r.start_ns;
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%" PRId64
                  ",\"dur\":%" PRId64 ",\"pid\":1,\"tid\":1,\"args\":{\"trace_id\":%" PRIu64
                  ",\"span_id\":%" PRIu64 ",\"parent_span_id\":%" PRIu64 ",\"dur_ns\":%" PRId64
                  ",\"pages\":%" PRId64 "}}",
                  i == 0 ? "" : ",", r.name.c_str(), r.start_ns / 1000, dur_ns / 1000, r.trace_id,
                  r.span_id, r.parent_id, dur_ns, r.pages);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

void RunTimedLoop(const RunConfig& config, const TimedLoop& loop, Result& result, SpanLog* spans) {
  std::vector<double> setup_s;
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  double peak_rss_mb = 0;
  const Clock::time_point start = Clock::now();
  int reps = 0;
  double last_rep_s = 0;
  // Ends before the repetition that would overrun the time budget.
  while (reps < (config.trace ? 2 * kMinTimedReps : kMinTimedReps) ||
         SecondsSince(start) + last_rep_s <= config.seconds) {
    const Clock::time_point rep_start = Clock::now();
    const bool traced = config.trace && reps % 2 == 1;
    const Repetition rep = loop.rep(traced ? spans : nullptr);
    ++reps;
    if (result.behaviour_digest.empty()) {
      result.behaviour_digest = rep.digest;
    } else if (rep.digest != result.behaviour_digest) {
      result.Fail(rep.ops, "repetition " + std::to_string(reps) + " digest " + rep.digest +
                               " differs from " + result.behaviour_digest);
    }
    if (reps == 1) {
      peak_rss_mb = PeakRssMb();
    }
    (traced ? traced_s : untraced_s).push_back(rep.timed_s);
    setup_s.push_back(rep.setup_s);
    const Clock::time_point setup_start = Clock::now();
    do {
      const Clock::time_point t0 = Clock::now();
      const std::shared_ptr<void> built = loop.setup();
      setup_s.push_back(SecondsSince(t0));
    } while (SecondsSince(setup_start) < 0.1 * (rep.setup_s + rep.timed_s));
    last_rep_s = SecondsSince(rep_start);
  }
  result.Add("setup_s", Kind::kHost, "s", "lower", loop.setup_basis).samples = setup_s;
  result.Add("peak_rss_mb", Kind::kHost, "MB", "lower", loop.rss_basis).samples = {peak_rss_mb};
  if (config.trace) {
    const double untraced = Median(untraced_s);
    result.AddLayer("trace.overhead_share", "ratio", (Median(traced_s) - untraced) / untraced);
  }
}

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return 0;
  }
  const double rank = std::ceil(p * static_cast<double>(sorted.size()));
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Median(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return Percentile(samples, 0.5);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace medes::perfbench
