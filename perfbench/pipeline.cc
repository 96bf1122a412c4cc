// dedup_restore_pipeline: the DedupAgent driven directly, without a platform.
//
// One base per FunctionBench function on node 0 and kVictimsPerFunction
// victims of every function on node 1, so victim pages match bases of their
// own function and of others. Each victim goes through DedupOp, then a lazy
// RestoreOp and, when that deferred pages, CompleteBackgroundRestore: the
// write path (fingerprint, registry lookup, delta encode) beside the read
// path (base fetch, delta decode), so a gain for one that costs the other
// shows up here.
//
// The check pass takes the victims through the agent at the check pool
// width with restore verification on: every restore byte-exact against the
// regenerated source image. The timed pass repeats setup + an unverified
// pass at pool width 1 until the time budget is spent, so the check's cost
// never lands in the timed restore path.
//
// Trace mode adds the layer pass: the same dedup and restore work done by
// calling each module's public function directly, one span per (victim,
// layer), so the Chrome trace attributes host time to memstate, checkpoint,
// chunking, registry, rdma, delta and the SHA-1 restore digest.
#include <algorithm>
#include <cstring>
#include <exception>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/hash.h"
#include "perfbench.h"

namespace medes::perfbench {
namespace {

constexpr int kVictimsPerFunction = 100;
constexpr SimTime kDedupAt{1};
constexpr SimTime kRestoreAt{2};
constexpr SimTime kBackgroundAt{3};
constexpr NodeId kBaseNode{0};
constexpr NodeId kVictimNode{1};

// The agent, fabric and registry configuration of the campaigns' platform.
const PlatformOptions& EvalMedes() {
  static const PlatformOptions options = bench::EvalOptions(PolicyKind::kMedes);
  return options;
}

// Setup: a two-node cluster with every base designated and every victim
// spawned warm. Victim generations come from the seed, so the seed picks
// the per-instance heap content the agent has to deduplicate.
class Rig {
 public:
  Rig(uint64_t seed, size_t pool_width)
      : cluster_(ClusterOptionsFor(seed)),
        registry_(EvalMedes().registry),
        fabric_(EvalMedes().rdma,
                [this](const PageLocation& loc) { return cluster_.ReadBasePage(loc); }),
        agent_(cluster_, registry_, fabric_, AgentOptionsFor(pool_width)) {
    for (const FunctionProfile& profile : FunctionBenchProfiles()) {
      Sandbox& base = cluster_.Spawn(profile, kBaseNode, SimTime{});
      base.generation = HashCombine(seed, static_cast<uint64_t>(profile.id)) % 1024;
      cluster_.MarkWarm(base, SimTime{});
      agent_.DesignateBase(base);
    }
    for (int i = 0; i < kVictimsPerFunction; ++i) {
      for (const FunctionProfile& profile : FunctionBenchProfiles()) {
        Sandbox& sb = cluster_.Spawn(profile, kVictimNode, SimTime{});
        sb.generation = HashCombine(seed ^ 0x9e3779b97f4a7c15ull, sb.id.value()) % 1024;
        cluster_.MarkWarm(sb, SimTime{});
        victims_.push_back(sb.id);
      }
    }
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  Cluster& cluster() { return cluster_; }
  FingerprintRegistry& registry() { return registry_; }
  RdmaFabric& fabric() { return fabric_; }
  DedupAgent& agent() { return agent_; }
  const std::vector<SandboxId>& victims() const { return victims_; }

 private:
  static ClusterOptions ClusterOptionsFor(uint64_t seed) {
    ClusterOptions options = EvalMedes().cluster;
    options.num_nodes = 2;
    options.node_memory_mb = 1e12;  // no memory pressure: nothing is evicted
    options.seed = seed;
    return options;
  }
  static DedupAgentOptions AgentOptionsFor(size_t pool_width) {
    DedupAgentOptions options = EvalMedes().agent;
    options.num_threads = pool_width;
    return options;
  }

  Cluster cluster_;
  FingerprintRegistry registry_;
  RdmaFabric fabric_;
  DedupAgent agent_;
  std::vector<SandboxId> victims_;
};

struct Pass {
  double dedup_s = 0;    // DedupOp
  double restore_s = 0;  // RestoreOp + CompleteBackgroundRestore
  uint64_t pages = 0;    // victim image pages (each deduped, then restored)
  uint64_t saved_bytes = 0;
  uint64_t ws_hit_pages = 0;
  uint64_t ws_touched_pages = 0;
  std::vector<double> startup_ms;  // modelled dedup-start latency per victim
  std::string digest;
};

// Takes each victim through DedupOp, then RestoreOp and background
// completion, one victim at a time (only one victim's checkpoint is alive).
Pass RunAgentPass(Rig& rig, bool verify, Result& result, SpanLog* spans) {
  Pass pass;
  Digest digest;
  DedupAgent& agent = rig.agent();
  for (SandboxId id : rig.victims()) {
    Sandbox& sb = *rig.cluster().Find(id);
    result.attempted += 3;
    DedupOpResult d;
    RestoreOpResult r;
    BackgroundRestoreResult b;
    try {
      const Clock::time_point t0 = Clock::now();
      {
        ScopedSpan span(spans, "dedupagent.dedup_op");
        d = agent.DedupOp(sb, kDedupAt);
        span.set_pages(d.pages_total);
      }
      pass.dedup_s += SecondsSince(t0);
      // Outside the timed region: the patch bytes go into the digest.
      for (const PatchRecord& record : sb.patches) {
        digest.Add(static_cast<uint64_t>(record.page.value()));
        digest.Add(sb.checkpoint->PatchData(record.page.value()));
      }
      const Clock::time_point t1 = Clock::now();
      {
        ScopedSpan span(spans, "dedupagent.restore_op");
        r = agent.RestoreOp(sb, kRestoreAt, verify);
        span.set_pages(r.ws_predicted_pages);
      }
      if (r.background_pending) {
        ScopedSpan span(spans, "dedupagent.background");
        b = agent.CompleteBackgroundRestore(sb, kBackgroundAt);
        span.set_pages(b.pages);
      }
      pass.restore_s += SecondsSince(t1);
    } catch (const std::exception& e) {
      result.Fail(3, std::string("victim ") + std::to_string(id.value()) + ": " + e.what());
      continue;
    }
    if (verify && !r.verified && !b.verified) {
      result.Fail(1, "restore of sandbox " + std::to_string(id.value()) + " was not verified");
    }
    if (sb.state != SandboxState::kWarm || sb.checkpoint.has_value()) {
      result.Fail(1, "sandbox " + std::to_string(id.value()) + " not fully restored");
    }
    pass.pages += d.pages_total;
    pass.saved_bytes += d.saved_bytes;
    pass.startup_ms.push_back(ToMillis(r.total_time));
    pass.ws_hit_pages += r.ws_hit_pages;
    pass.ws_touched_pages += r.ws_touched_pages;
    for (size_t v : {d.pages_total, d.pages_deduped, d.pages_zero, d.pages_unique, d.patch_bytes,
                     d.saved_bytes, d.same_function_pages, d.cross_function_pages,
                     r.base_pages_read, r.base_bytes_read, r.remote_reads, r.ws_predicted_pages,
                     r.ws_touched_pages, r.ws_hit_pages, r.ws_fault_pages, r.background_pages,
                     b.pages, b.base_pages_read, b.base_bytes_read, b.remote_reads}) {
      digest.Add(static_cast<uint64_t>(v));
    }
    for (SimDuration t : {d.total_time, r.read_base_time, r.compute_time, r.sandbox_restore_time,
                          r.critical_path_time, r.fault_time, b.total_time}) {
      digest.Add(static_cast<uint64_t>(t.value()));
    }
  }
  std::sort(pass.startup_ms.begin(), pass.startup_ms.end());
  pass.digest = digest.Hex();
  return pass;
}

// The layer pass: the agent's dedup and restore work, one module call at a
// time, each layer under its own span. The restore ends as a verifying
// restore does, with a SHA-1 digest of the reconstructed image. Nothing here
// changes sandbox state, so it runs on its own rig. Reconstructed images are
// also compared byte for byte with the source after the spans close.
void RunLayerPass(Rig& rig, Result& result, SpanLog& spans) {
  const DedupAgentOptions& options = rig.agent().options();
  const PageFingerprinter fingerprinter(options.fingerprint);
  const size_t max_accepted = static_cast<size_t>(options.patch_accept_max_ratio *
                                                  static_cast<double>(kPageSize));
  DeltaScratch scratch;
  std::vector<uint8_t> patch_buf;
  for (SandboxId id : rig.victims()) {
    const Sandbox& sb = *rig.cluster().Find(id);
    result.attempted += 1;
    MemoryImage image;
    std::vector<size_t> pages;                // resident pages with a patch
    std::vector<PageLocation> bases;          // their base page
    std::vector<std::vector<uint8_t>> patches;
    {
      ScopedSpan dedup(&spans, "layers.dedup");
      {
        ScopedSpan span(&spans, "memstate.build_image", dedup.id());
        image = rig.cluster().BuildImage(sb);
        span.set_pages(image.NumPages());
      }
      MemoryCheckpoint cp;
      {
        ScopedSpan span(&spans, "checkpoint.capture", dedup.id());
        cp = MemoryCheckpoint::Capture(image);
        span.set_pages(cp.NumPages());
      }
      std::vector<size_t> resident;
      for (size_t page = 0; page < cp.NumPages(); ++page) {
        if (cp.SlotState(page) == PageSlotState::kResident) {
          resident.push_back(page);
        }
      }
      std::vector<PageFingerprint> fps(resident.size());
      {
        ScopedSpan span(&spans, "chunking.fingerprint", dedup.id());
        for (size_t i = 0; i < resident.size(); ++i) {
          fps[i] = fingerprinter.FingerprintPage(cp.PageData(resident[i]));
        }
        span.set_pages(resident.size());
      }
      std::vector<std::vector<BasePageCandidate>> candidates;
      {
        ScopedSpan span(&spans, "registry.lookup", dedup.id());
        const size_t batch = std::max<size_t>(options.lookup_batch_pages, 1);
        for (size_t lo = 0; lo < fps.size(); lo += batch) {
          auto out = rig.registry().FindBasePagesBatch(
              std::span<const PageFingerprint>(fps).subspan(lo, std::min(batch, fps.size() - lo)),
              sb.node, sb.id, options.max_base_pages_per_page);
          std::move(out.begin(), out.end(), std::back_inserter(candidates));
        }
        span.set_pages(resident.size());
      }
      std::vector<size_t> matched;
      std::vector<std::vector<uint8_t>> base_bytes;
      {
        ScopedSpan span(&spans, "rdma.read", dedup.id());
        SimDuration cost;
        for (size_t i = 0; i < resident.size(); ++i) {
          if (!candidates[i].empty()) {
            matched.push_back(i);
            base_bytes.push_back(
                rig.fabric().ReadPage(candidates[i].front().location, sb.node, &cost));
          }
        }
        span.set_pages(matched.size());
      }
      {
        ScopedSpan span(&spans, "delta.encode", dedup.id());
        for (size_t j = 0; j < matched.size(); ++j) {
          const size_t i = matched[j];
          DeltaEncodeInto(base_bytes[j], cp.PageData(resident[i]), options.delta, patch_buf,
                          &scratch);
          if (patch_buf.size() <= max_accepted) {
            pages.push_back(resident[i]);
            bases.push_back(candidates[i].front().location);
            patches.push_back(patch_buf);
          }
        }
        span.set_pages(matched.size());
      }
    }
    // Restore starts from the checkpoint: resident pages intact, patched
    // pages blank until decoded.
    std::vector<uint8_t> reconstructed(image.bytes().begin(), image.bytes().end());
    for (size_t page : pages) {
      std::memset(reconstructed.data() + page * kPageSize, 0, kPageSize);
    }
    // The digest a verifying restore compares against; taking it is the
    // check's work, not the restore's, so it stays outside the spans.
    const Sha1Digest expected = Sha1::Hash(image.bytes());
    bool digests_match = false;
    {
      ScopedSpan restore(&spans, "layers.restore");
      std::vector<std::vector<uint8_t>> base_bytes;
      {
        ScopedSpan span(&spans, "rdma.read", restore.id());
        SimDuration cost;
        base_bytes = rig.fabric().ReadPageBatch(bases, sb.node, &cost);
        span.set_pages(bases.size());
      }
      {
        ScopedSpan span(&spans, "delta.decode", restore.id());
        std::vector<uint8_t> out;
        for (size_t j = 0; j < pages.size(); ++j) {
          DeltaDecodeInto(base_bytes[j], patches[j], out);
          std::memcpy(reconstructed.data() + pages[j] * kPageSize, out.data(),
                      std::min(out.size(), kPageSize));
        }
        span.set_pages(pages.size());
      }
      {
        ScopedSpan span(&spans, "common.sha1", restore.id());
        digests_match = Sha1::Hash(reconstructed) == expected;
        span.set_pages(image.NumPages());
      }
    }
    if (!digests_match ||
        std::memcmp(reconstructed.data(), image.bytes().data(), reconstructed.size()) != 0) {
      result.Fail(1, "layer pass: sandbox " + std::to_string(id.value()) +
                         " reconstruction differs from its source image");
    }
  }
}

void ReportLayerCounts(Rig& rig, const Pass& pass, Result& result) {
  const DedupAgentStats agent = rig.agent().stats();
  const RegistryStats registry = rig.registry().stats();
  const RdmaStats rdma = rig.fabric().stats();
  const TransportStats net = rig.fabric().transport()->stats();
  const double lookups = static_cast<double>(registry.lookups);
  // No event engine, state store or memory pressure in this workload.
  result.AddLayer("sim.events_per_request", "count", 0);
  result.AddLayer("sim.max_live_events", "count", 0);
  result.AddLayer("dedupagent.dedup_ops", "count", static_cast<double>(agent.dedup_ops));
  result.AddLayer("dedupagent.restores", "count", static_cast<double>(agent.restore_ops));
  result.AddLayer("registry.lookups", "count", lookups);
  result.AddLayer("dedupagent.dedup_yield", "ratio",
                  lookups > 0 ? static_cast<double>(agent.pages_deduped) / lookups : 0);
  result.AddLayer("registry.key_hits_per_lookup", "ratio",
                  lookups > 0 ? static_cast<double>(registry.key_hits) / lookups : 0);
  result.AddLayer("rdma.cache_hit_ratio", "ratio", rdma.CacheHitRate());
  result.AddLayer("rdma.remote_reads", "count", static_cast<double>(rdma.remote_reads));
  result.AddLayer("net.messages", "count", static_cast<double>(net.TotalMessages()));
  result.AddLayer("net.bytes", "bytes", static_cast<double>(net.TotalBytes()));
  result.AddLayer("net.dropped", "count", static_cast<double>(net.TotalDropped()));
  result.AddLayer("dedupagent.ws_hit_ratio", "ratio",
                  pass.ws_touched_pages > 0 ? static_cast<double>(pass.ws_hit_pages) /
                                                  static_cast<double>(pass.ws_touched_pages)
                                            : 0);
  result.AddLayer("store.cold_fetches", "count", 0);
  result.AddLayer("platform.evictions", "count", 0);
}

}  // namespace

void RunDedupRestorePipeline(const RunConfig& config, Result& result, SpanLog* spans) {
  if (config.check_pass) {
    Rig rig(config.seed, config.check_pool_width);
    const Pass check = RunAgentPass(rig, /*verify=*/true, result, nullptr);
    result.behaviour_digest = check.digest;
    const std::string basis = std::to_string(check.startup_ms.size()) + " dedup starts";
    result.Add("dedup_startup_p50_ms", Kind::kSim, "ms", "lower", basis).samples = {
        Percentile(check.startup_ms, 0.50)};
    result.Add("dedup_startup_p99_ms", Kind::kSim, "ms", "lower", basis).samples = {
        Percentile(check.startup_ms, 0.99)};
    result.Add("memory_saved_mb", Kind::kSim, "MB", "higher",
               std::to_string(rig.victims().size()) + " dedup ops")
        .samples = {static_cast<double>(check.saved_bytes) /
                    static_cast<double>(rig.cluster().options().bytes_per_mb)};
    if (config.trace) {
      ReportLayerCounts(rig, check, result);
    }
    return;
  }

  // The two paths are gated apart, so a gain on one that costs the other
  // shows.
  Metric& write_path = result.Add("write_path_per_s", Kind::kHost, "1/s", "higher",
                                  "victim pages per host s of DedupOp");
  Metric& read_path = result.Add("read_path_per_s", Kind::kHost, "1/s", "higher",
                                 "victim pages per host s of RestoreOp + background");
  RunTimedLoop(
      config,
      {.setup_basis = "base designation + victim spawn",
       .rss_basis = "process peak RSS after one pass",
       .rep =
           [&](SpanLog* rep_spans) {
             const Clock::time_point t0 = Clock::now();
             Rig rig(config.seed, kTimedPoolWidth);
             const double rig_s = SecondsSince(t0);
             const Pass pass = RunAgentPass(rig, /*verify=*/false, result, rep_spans);
             if (rep_spans == nullptr) {
               const double pages = static_cast<double>(pass.pages);
               write_path.samples.push_back(pages / pass.dedup_s);
               read_path.samples.push_back(pages / pass.restore_s);
             } else {
               Rig layer_rig(config.seed, kTimedPoolWidth);
               RunLayerPass(layer_rig, result, *rep_spans);
             }
             return Repetition{.setup_s = rig_s,
                               .timed_s = pass.dedup_s + pass.restore_s,
                               .ops = 1,
                               .digest = pass.digest};
           },
       .setup = [&] { return std::make_shared<Rig>(config.seed, kTimedPoolWidth); }},
      result, spans);
}

}  // namespace medes::perfbench
