// The repository benchmark (perfbench): shared run configuration, the result
// record main.cc prints, the behaviour digest and the bench-side span log.
//
// Two kinds of number come out of a run, and every metric says which:
//   host  what the simulator spent (wall time, memory) — noisy;
//   sim   what the modelled cluster did — a pure function of the seed, so a
//         speed-only change must leave every sim value and the behaviour
//         digest identical.
//
// Spans are recorded only here, around calls into the library's public
// functions; the program's own stage spans are stamped after the work and
// carry no usable wall time, so they are never read.
#ifndef MEDES_PERFBENCH_PERFBENCH_H_
#define MEDES_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace medes::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Dedup-agent pool width of every timed pass. On a shared 4-vCPU host,
// passes at width 4 swung up to 3x between runs with the host's steal time
// (and restores ran slower than serially); width 1 times the simulator's
// serial cost steadily. The check pass covers the wider pool.
inline constexpr size_t kTimedPoolWidth = 1;

// A run is two processes. The check pass replays the workload once at
// check_pool_width, checks its outputs and reports the sim metrics (and, in
// trace mode, the per-layer work counts); the timed pass repeats it at
// kTimedPoolWidth and reports the host metrics, so its peak RSS holds none
// of the check pass's thread arenas. run.py requires both passes, and every
// repetition of the timed one, to report one behaviour digest.
struct RunConfig {
  std::string workload;
  uint64_t seed = 0xa22e;
  // Length of the timed loop; a run always completes at least the minimum
  // number of timed repetitions its workload needs for a median.
  double seconds = 10;
  bool trace = false;
  bool check_pass = false;
  // Dedup-agent pool width of the check pass, min(nproc, 4).
  size_t check_pool_width = 1;
  // Chrome trace-event JSON written by a traced timed pass.
  std::string trace_path;
};

enum class Kind { kHost, kSim };

struct Metric {
  std::string name;
  Kind kind = Kind::kHost;
  std::string unit;
  std::string better;  // "higher" or "lower"
  std::vector<double> samples;
  std::string basis;  // what one sample measures, for the report
};

struct Result {
  // End-to-end metrics, host and sim (every sample of each). Deques, so a
  // Metric& from Add stays valid while more metrics are added.
  std::deque<Metric> metrics;
  // Per-layer work counts of trace mode (one value each); the timed layers
  // are derived from the trace file by run.py.
  std::deque<Metric> layers;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::string behaviour_digest;

  Metric& Add(const std::string& name, Kind kind, const std::string& unit,
              const std::string& better, const std::string& basis);
  void AddLayer(const std::string& name, const std::string& unit, double value);
  // Counts `ops` failed operations and records why.
  void Fail(uint64_t ops, const std::string& why);
};

// FNV-1a over a canonical byte serialisation of sim outputs.
class Digest {
 public:
  void Add(uint64_t v);
  void Add(double v);
  void Add(std::span<const uint8_t> bytes);
  std::string Hex() const;

 private:
  uint64_t h_ = 0xcbf29ce484222325ull;
};

// Bench-side spans, kept in memory and written as Chrome trace-event JSON
// (the format `python3 -m scripts check-trace-json` validates). Each root
// span starts its own trace; `pages` is the work the span covered, carried
// as an arg so per-layer ns/page can be derived from the file alone.
class SpanLog {
 public:
  SpanLog();

  struct Record {
    std::string name;
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
    uint64_t parent_id = 0;  // 0 = root
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t pages = 0;
  };

  // Opens a span under `parent` (0 = a new root) and returns its id.
  uint64_t Begin(const char* name, uint64_t parent);
  void End(uint64_t id, int64_t pages);

  std::string ChromeJson() const;

 private:
  Clock::time_point origin_;
  std::vector<Record> records_;
};

// RAII span; a null log makes it a no-op, so traced and untraced passes
// share one code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t parent = 0)
      : log_(log), id_(log != nullptr ? log->Begin(name, parent) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->End(id_, pages_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }
  void set_pages(size_t pages) { pages_ = static_cast<int64_t>(pages); }

 private:
  SpanLog* log_;
  uint64_t id_;
  int64_t pages_ = 0;
};

// What one timed repetition did.
struct Repetition {
  double setup_s = 0;  // its own setup, timed apart from the rest
  double timed_s = 0;  // its timed region
  uint64_t ops = 0;    // operations it attempted; failed if its digest differs
  std::string digest;
};

// The timed pass, shared by every workload: repetitions until the time
// budget is spent (at least three for a median, twice that in trace mode,
// where they alternate untraced and traced so the difference is the tracing
// overhead), each checked against the first one's behaviour digest. After
// each repetition its setup is repeated alone, at least once and for a
// tenth of the repetition's time, so setup_s gets many samples spread over
// the run. Adds setup_s and peak_rss_mb (read after the first repetition:
// one replay, before later ones fragment the heap), and
// trace.overhead_share in trace mode.
struct TimedLoop {
  std::string setup_basis;
  std::string rss_basis;
  // One repetition. `spans` is null on untraced repetitions, which are the
  // ones that add host-rate samples.
  std::function<Repetition(SpanLog* spans)> rep;
  // The setup alone; what it returns is destroyed after its timing is taken.
  std::function<std::shared_ptr<void>()> setup;
};

void RunTimedLoop(const RunConfig& config, const TimedLoop& loop, Result& result, SpanLog* spans);

// Nearest-rank percentile of an ascending-sorted sample (0 when empty).
double Percentile(const std::vector<double>& sorted, double p);
double Median(std::vector<double> samples);

// Peak resident set size of this process so far, in MB.
double PeakRssMb();

// Workload entry points. Each fills `result` and throws only on a broken
// setup; failed checks are recorded in the result.
void RunMedesP2Campaign(const RunConfig& config, Result& result, SpanLog* spans);
void RunKeepAliveCampaign(const RunConfig& config, Result& result, SpanLog* spans);
void RunDedupRestorePipeline(const RunConfig& config, Result& result, SpanLog* spans);

}  // namespace medes::perfbench

#endif  // MEDES_PERFBENCH_PERFBENCH_H_
