// medes_perfbench: runs one benchmark workload and prints its result as one
// JSON document on stdout. perfbench/run.py builds this binary, runs it and
// turns the document into the report; see perfbench/README.md.
//
//   medes_perfbench --workload NAME --pass check|timed [--seed N] [--seconds S]
//                   [--trace 0|1] [--trace-out FILE]
//
// Exit codes: 0 ran and every output check passed; 1 a check failed (the
// document is still printed); 2 refused to run (bad arguments, or a
// configuration whose timings would not describe the program users run).
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "bench_util.h"
#include "common/kernels/cpu_features.h"
#include "obs/export.h"
#include "obs/obs.h"
#include "perfbench.h"

#ifndef MEDES_PERFBENCH_BUILD_TYPE
#define MEDES_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace medes::perfbench {
namespace {

struct Workload {
  const char* name;
  void (*run)(const RunConfig&, Result&, SpanLog*);
};

// Fixed-point digits of every number in the document: enough that no
// timing loses a digit.
constexpr int kJsonDigits = 17;

constexpr Workload kWorkloads[] = {
    {"medes_p2_10n", RunMedesP2Campaign},
    {"keepalive_100n", RunKeepAliveCampaign},
    {"dedup_restore_pipeline", RunDedupRestorePipeline},
};

int Usage(const char* why) {
  std::fprintf(stderr,
               "medes_perfbench: %s\nusage: medes_perfbench --workload NAME --pass check|timed "
               "[--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE]\nworkloads:",
               why);
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

size_t Nproc() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return 1;
}

const char* Sanitizer() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "enabled";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "enabled";
#endif
#endif
  return "none";
}

// Refuses configurations that would time a program users do not run:
// observability on, scalar kernels forced, the lock-rank checker armed, a
// sanitizer or an unoptimised build. Returns the reason, or "" to go ahead.
std::string RefusalReason() {
  for (const char* var : {"MEDES_TRACE", "MEDES_METRICS", "MEDES_TRACE_WALL", "MEDES_FORCE_SCALAR",
                          "MEDES_DEBUG_LOCKS"}) {
    const char* value = std::getenv(var);
    if (value != nullptr && *value != '\0') {
      return std::string(var) + " is set";
    }
  }
  if (obs::TraceEnabled() || obs::MetricsEnabled()) {
    return "observability is enabled";
  }
  if (std::string_view(Sanitizer()) != "none") {
    return "sanitizer build";
  }
#ifndef __OPTIMIZE__
  return "unoptimised build";
#endif
  return "";
}

void WriteMetrics(bench::JsonWriter& w, std::string_view key, const std::deque<Metric>& metrics) {
  w.BeginArray(key);
  for (const Metric& m : metrics) {
    w.BeginObject()
        .Field("name", m.name)
        .Field("kind", m.kind == Kind::kHost ? "host" : "sim")
        .Field("unit", m.unit)
        .Field("better", m.better)
        .Field("basis", m.basis)
        .BeginArray("samples");
    for (double v : m.samples) {
      w.Value(std::isfinite(v) ? v : 0.0, kJsonDigits);
    }
    w.EndArray().EndObject();
  }
  w.EndArray();
}

std::string ResultJson(const RunConfig& config, size_t nproc, const Result& r) {
  bench::JsonWriter w;
  w.BeginObject()
      .Field("workload", config.workload)
      .Field("seed", config.seed)
      .Field("seconds", config.seconds, kJsonDigits)
      .Field("trace", config.trace ? 1 : 0)
      .Field("pass", config.check_pass ? "check" : "timed")
      .BeginObject("config")
      .Field("build_type", MEDES_PERFBENCH_BUILD_TYPE)
      .Field("pool_width", config.check_pass ? config.check_pool_width : kTimedPoolWidth)
      .Field("nproc", nproc)
      // The highest tier this CPU and binary could bind — not necessarily
      // the tier that ran: asking which tier is bound would rebind kernels.
      .Field("kernel_tier_max_supported", kernels::TierName(kernels::MaxSupportedTier()))
      .Field("sanitizer", Sanitizer())
      .EndObject()
      .Field("attempted", r.attempted)
      .Field("failed", r.failed)
      .BeginArray("errors");
  for (size_t i = 0; i < r.errors.size() && i < 20; ++i) {
    w.Value(std::string_view(r.errors[i]));
  }
  w.EndArray().Field("behaviour_digest", r.behaviour_digest);
  WriteMetrics(w, "metrics", r.metrics);
  WriteMetrics(w, "layers", r.layers);
  if (!config.trace_path.empty()) {
    w.Field("trace_file", config.trace_path);
  }
  w.EndObject();
  return w.str();
}

int Main(int argc, char** argv) {
  RunConfig config;
  bool has_pass = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) {
      return Usage("missing value");
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value, &end, 0);
      if (*value == '\0' || *end != '\0') {
        return Usage("bad --seed");
      }
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value, &end);
      if (*value == '\0' || *end != '\0' || !(config.seconds > 0 && config.seconds <= 600)) {
        return Usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (std::string_view(value) != "0" && std::string_view(value) != "1") {
        return Usage("bad --trace");
      }
      config.trace = std::string_view(value) == "1";
    } else if (arg == "--pass") {
      if (std::string_view(value) != "check" && std::string_view(value) != "timed") {
        return Usage("bad --pass");
      }
      config.check_pass = std::string_view(value) == "check";
      has_pass = true;
    } else if (arg == "--trace-out") {
      config.trace_path = value;
    } else {
      return Usage("unknown argument");
    }
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (config.workload == w.name) {
      workload = &w;
    }
  }
  if (workload == nullptr) {
    return Usage("unknown --workload");
  }
  if (!has_pass) {
    return Usage("missing --pass");
  }
  const bool record_spans = config.trace && !config.check_pass;
  if (record_spans && config.trace_path.empty()) {
    return Usage("a traced timed pass needs --trace-out");
  }
  if (const std::string reason = RefusalReason(); !reason.empty()) {
    std::fprintf(stderr, "medes_perfbench: refusing to time: %s\n", reason.c_str());
    return 2;
  }
  const size_t nproc = Nproc();
  config.check_pool_width = std::min<size_t>(nproc, 4);

  Result result;
  SpanLog spans;
  try {
    workload->run(config, result, record_spans ? &spans : nullptr);
  } catch (const std::exception& e) {
    result.Fail(std::max<uint64_t>(1, result.attempted), std::string("aborted: ") + e.what());
  }
  if (record_spans && !obs::WriteFile(config.trace_path, spans.ChromeJson())) {
    result.Fail(1, "cannot write " + config.trace_path);
  }
  std::printf("%s\n", ResultJson(config, nproc, result).c_str());
  return result.failed == 0 && result.attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace medes::perfbench

int main(int argc, char** argv) { return medes::perfbench::Main(argc, argv); }
