// The per-node dedup agent: dedup and restore operations (paper Section 4).
//
// Dedup op (Fig. 5): checkpoint the warm sandbox; fingerprint each page with
// value-sampled 64 B chunks; look the fingerprints up in the controller's
// global registry to pick a *base page* per page (max sampled-chunk overlap,
// local pages preferred on ties); read the base pages (RDMA when remote);
// compute an Xdelta-style patch at compression level 1; keep the patch and
// purge the original page when the patch is small enough. The checkpoint's
// namespace/process-tree restoration work is done *now* so dedup starts skip
// it (Section 4.2).
//
// Restore op (Fig. 6) is one pipeline of phases: fetch the base pages of a
// set of patch records (one-sided RDMA, no controller involvement), decode
// and merge the original pages back into the checkpoint, and charge the CRIU
// rebuild. A restore mode only chooses which records each phase handles
// (see DESIGN.md "Lazy restore"). The default, *lazy* (REAP-style), fetches
// the function's predicted post-resume working set before resume in one
// coalesced RdmaFabric::ReadPageBatch per owner node; touched pages outside
// the prediction pay a modelled demand fault (serial reads), and the rest are
// fetched by a background phase the platform schedules on the event engine.
// RestoreMode::kEager runs the same phases with serial reads over every
// record before resume, as the regression reference; final memory images are
// bit-identical between the two modes. The agent is the one tally of its op
// results (DedupAgentStats); the platform copies the totals at end of run.
//
// Timing is modelled against *represented* sizes: the synthetic images are
// built at `bytes_per_mb` scale, so modelled durations multiply measured
// byte/page counts by the scale ratio back to full size.
//
// Execution is a staged pipeline fanned out over a thread pool (paper
// Section 4 pipelines this work across sandboxes; we parallelise across
// pages, which are independent):
//   fingerprint (parallel) -> registry lookup (parallel, batched) ->
//   base-page read (serial, canonical page order, through the fabric cache)
//   -> delta encode/decode (parallel) -> merge (serial, page order).
// The serial read stage makes cache hit/miss decisions and all modelled
// SimDuration costs a function of page order alone, so every DedupOpResult,
// patch record, and cost is bit-identical across thread counts.
#ifndef MEDES_DEDUPAGENT_DEDUP_AGENT_H_
#define MEDES_DEDUPAGENT_DEDUP_AGENT_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "checkpoint/checkpoint.h"
#include "chunking/fingerprint.h"
#include "cluster/cluster.h"
#include "common/annotations.h"
#include "common/histogram.h"
#include "common/mutex.h"
#include "common/sha1.h"
#include "common/thread_pool.h"
#include "delta/delta.h"
#include "memstate/working_set.h"
#include "obs/trace_context.h"
#include "rdma/rdma.h"
#include "registry/fingerprint_registry.h"

namespace medes {

namespace store {
class StateStore;
}  // namespace store

// How RestoreOp schedules the memory-state work (see file comment).
enum class RestoreMode {
  kLazy,   // working-set prefetch on the critical path, background the rest
  kEager,  // restore everything before resume (the regression reference)
};

const char* ToString(RestoreMode mode);

struct DedupAgentOptions {
  FingerprintOptions fingerprint;
  DeltaOptions delta{.level = 1};
  CheckpointCosts criu;
  // A patch is only kept if it is smaller than this fraction of the page
  // (otherwise deduplication of that page isn't worth the metadata).
  double patch_accept_max_ratio = 0.85;
  // How many ranked base pages a patch may be computed against (Section
  // 4.1.2 says "base page(s)"; 1 keeps restore reads minimal — the Fig. 16
  // cardinality sensitivity raises it).
  size_t max_base_pages_per_page = 1;
  // Patch computation / application throughput, bytes per us (~1 GB/s).
  double patch_bytes_per_us = 1000.0;
  // Keep checkpoint payload bytes after the op (true = byte-exact restores
  // can be verified; false = size-only accounting for fast simulation).
  bool keep_payloads = true;
  // Pipeline worker threads: 0 = MEDES_THREADS env var, else hardware
  // concurrency; 1 = fully serial (the determinism-test reference).
  size_t num_threads = 0;
  // Pages per registry lookup batch (one FindBasePagesBatch call per task).
  size_t lookup_batch_pages = 64;
  // Restore scheduling mode (lazy = working-set prefetch, the default).
  RestoreMode restore_mode = RestoreMode::kLazy;
  // Working-set prediction knobs (EMA alpha + prefetch threshold).
  WorkingSetOptions working_set;
  // Modelled cost of a minor fault on a touched page the lazy critical path
  // chose not to map (per represented page; scaled like every other cost).
  SimDuration minor_fault_cost{2};
  // Extra userfaultfd/kernel overhead when the faulted page is still patched
  // and must be fetched + decoded on demand, on top of the fetch itself.
  SimDuration major_fault_cost{8};
  // Shared working-set table so profiles warm across platforms/runs of a
  // campaign; null = the agent creates a private table from `working_set`.
  std::shared_ptr<WorkingSetTable> working_sets;
  // Tiered state store (src/store): when set, base designations append the
  // base's resident pages, and dedup lookups touch candidate registry
  // entries at the serial post-lookup join — demand-paging SSD-evicted
  // entries into the op's modelled lookup cost. Null = no tiering (the
  // historical behaviour, bit-identical results).
  std::shared_ptr<store::StateStore> state_store;
};

struct DedupOpResult {
  size_t pages_total = 0;
  size_t pages_deduped = 0;   // replaced by patches
  size_t pages_zero = 0;
  size_t pages_unique = 0;    // kept resident (no acceptable base page)
  size_t patch_bytes = 0;     // real bytes at image scale
  size_t saved_bytes = 0;     // (page size - patch size) summed, image scale
  size_t same_function_pages = 0;   // deduped against a base of the same function
  size_t cross_function_pages = 0;  // ... of a different function (Section 7.3.1)
  // Modelled durations at represented scale.
  SimDuration checkpoint_time;
  // Registry lookups (the registry's modelled cost: transport messages plus
  // controller-side per-page work, summed across the op's batches).
  SimDuration lookup_time;
  SimDuration patch_time;    // base page reads + patch computation
  SimDuration total_time;
};

// Restore-mode accounting, aggregated over every restore. `critical_path_ms`
// is the pre-resume latency of each restore, the quantity Fig. 8 compares
// across restore modes; fault/background time is what lazy mode moved off
// that path.
struct LazyRestoreStats {
  uint64_t lazy_restores = 0;
  uint64_t eager_restores = 0;
  uint64_t ws_predicted_pages = 0;
  uint64_t ws_touched_pages = 0;
  uint64_t ws_hit_pages = 0;
  uint64_t ws_fault_pages = 0;          // mispredicted post-resume touches
  uint64_t background_deferred_pages = 0;  // patched pages left for the background
  uint64_t background_completions = 0;  // background phases run to completion
  uint64_t background_pages = 0;        // patched pages faulted in off-path
  double fault_ms = 0;       // post-resume demand-fault penalty
  double background_ms = 0;  // off-critical-path background phase time
  SampleRecorder critical_path_ms;

  // Fraction of touched pages the prediction prefetched (1.0 when nothing
  // was touched — there was nothing to miss).
  double HitRate() const {
    return ws_touched_pages == 0
               ? 1.0
               : static_cast<double>(ws_hit_pages) / static_cast<double>(ws_touched_pages);
  }
};

// Modelled durations (represented scale), one sample per op: the dedup
// op's stages (DedupOpResult) and the restore op's Fig. 8 components
// (RestoreOpResult). Critical-path and fault time are sampled for lazy
// restores only; background time once per completed background phase.
struct StageLatencies {
  LatencyHistogram dedup_op;
  LatencyHistogram dedup_checkpoint;
  LatencyHistogram dedup_lookup;
  LatencyHistogram dedup_patch;
  LatencyHistogram restore_op;
  LatencyHistogram restore_base_read;
  LatencyHistogram restore_compute;
  LatencyHistogram restore_criu;
  LatencyHistogram restore_critical;
  LatencyHistogram restore_fault;
  LatencyHistogram restore_background;
};

// Cumulative per-agent counters, aggregated across every op the agent has
// run, in op order: the single source of dedup, restore and designation
// totals.
struct DedupAgentStats {
  uint64_t dedup_ops = 0;
  uint64_t restore_ops = 0;
  uint64_t bases_designated = 0;
  uint64_t pages_deduped = 0;
  uint64_t pages_unique = 0;
  uint64_t pages_restored = 0;
  uint64_t patch_bytes = 0;
  uint64_t saved_bytes = 0;
  uint64_t base_pages_read = 0;  // restore and background phases
  uint64_t base_bytes_read = 0;
  LazyRestoreStats lazy;
  StageLatencies latency;
};

struct RestoreOpResult {
  RestoreMode mode = RestoreMode::kEager;
  size_t base_pages_read = 0;
  size_t base_bytes_read = 0;    // real bytes at image scale
  size_t remote_reads = 0;
  // Modelled durations at represented scale — the three Fig. 8 components.
  // Lazy mode scopes them to the critical-path phase (working-set pages).
  SimDuration read_base_time;      // "base page reading"
  SimDuration compute_time;        // "original page computing"
  SimDuration sandbox_restore_time;  // "sandbox restoration" (CRIU)
  // Latency gating resume: the three components above. Eager mode:
  // critical_path_time == total_time and fault_time is zero.
  SimDuration critical_path_time;
  // Modelled post-resume demand-fault penalty (mispredicted working set:
  // minor faults, plus fetch + decode for pages that were still patched).
  SimDuration fault_time;
  SimDuration total_time;  // critical_path_time + fault_time
  // Working-set accounting (lazy mode). Hits/faults partition the touched
  // set; an unprofiled function prefetches the full image (predicted == all).
  size_t ws_predicted_pages = 0;
  size_t ws_touched_pages = 0;
  size_t ws_hit_pages = 0;
  size_t ws_fault_pages = 0;
  // Patched pages deferred to the background phase. When non-zero the caller
  // must eventually run CompleteBackgroundRestore (the platform schedules it
  // on the event engine) or abandon the restore on purge.
  size_t background_pages = 0;
  bool background_pending = false;
  bool verified = false;  // byte-exact reconstruction check ran and passed
};

// Outcome of the background phase of a lazy restore.
struct BackgroundRestoreResult {
  size_t pages = 0;  // patched pages faulted in
  size_t base_pages_read = 0;
  size_t base_bytes_read = 0;
  size_t remote_reads = 0;
  SimDuration total_time;  // modelled duration, entirely off the critical path
  // Deferred byte-exact check (digest captured at RestoreOp time) ran and
  // passed. False when verification was off or nothing was pending.
  bool verified = false;
};

class DedupAgent {
 public:
  // The agent mutates cluster sandboxes and reads pages through the fabric;
  // the registry belongs to the controller. All referenced objects must
  // outlive the agent.
  DedupAgent(Cluster& cluster, RegistryBackend& registry, RdmaFabric& fabric,
             DedupAgentOptions options = {});

  const DedupAgentOptions& options() const { return options_; }

  // Converts a warm sandbox into the dedup state. Builds the sandbox's
  // current image, checkpoints it, and eliminates redundancy page by page.
  // `ctx`, when sampled, becomes the parent of the op span and — through it
  // — of every stage span and wire-message span the op emits.
  DedupOpResult DedupOp(Sandbox& sb, SimTime now, const obs::TraceContext& ctx = {});

  // Restores a dedup sandbox to warm. When `verify` is set (and payloads
  // were kept) the reconstructed image is compared byte-for-byte against the
  // sandbox's regenerated source image — immediately when the restore
  // completes in one phase, or at background completion via a digest
  // captured here (the source image depends on the sandbox's generation,
  // which advances when it runs again). `ctx`, when sampled, parents the
  // restore's span tree (including the deferred background phase).
  RestoreOpResult RestoreOp(Sandbox& sb, SimTime now, bool verify = false,
                            const obs::TraceContext& ctx = {});

  // Completes the background phase of a lazy restore: batched fetch + decode
  // of every still-patched page, then releases the checkpoint. Returns a
  // zero result when nothing is pending for `sb`.
  BackgroundRestoreResult CompleteBackgroundRestore(Sandbox& sb, SimTime now);

  bool HasPendingBackgroundRestore(SandboxId id) const EXCLUDES(pending_mu_);

  // Releases whatever patch state `sb` still holds without fetching
  // anything (sandbox purged, or re-deduped so a fresh checkpoint supersedes
  // the old one): unrefs every base its patch records reference, clears the
  // records, and forgets any pending background restore.
  void ReleasePatches(Sandbox& sb) EXCLUDES(pending_mu_);

  // The working-set profile table consulted by lazy restores (shared when
  // DedupAgentOptions::working_sets was set, agent-private otherwise).
  WorkingSetTable& working_sets() { return *working_sets_; }

  // Snapshot + fingerprint + registry insertion for a base sandbox
  // designation. Returns the registered snapshot. `now`/`ctx` anchor the
  // designation span in the trace timeline and parent the registry-insert
  // wire spans; the defaults keep standalone callers untraced.
  BaseSnapshot& DesignateBase(Sandbox& sb, SimTime now = {}, const obs::TraceContext& ctx = {});

  // Represented-scale multiplier for this cluster's image scale.
  double ScaleFactor() const;

  // Resolved pipeline width (>= 1).
  size_t NumThreads() const { return pool_->NumThreads(); }

  // Consistent snapshot of the cumulative counters.
  DedupAgentStats stats() const EXCLUDES(stats_mu_);

 private:
  // Deferred-verification state for a lazy restore with a pending background
  // phase. The digest is of the full source image, captured before the
  // platform marks the sandbox running (generation advances there).
  struct PendingRestore {
    Sha1Digest expected;
    bool verify = false;
    // Restore-op context captured at RestoreOp time: the background phase
    // runs later (event engine) but its spans belong to the same trace.
    obs::TraceContext ctx;
  };

  // Which patch records (indexes into sb.patches) each restore phase handles.
  struct RestorePlan {
    std::vector<size_t> critical;    // fetched and mapped before resume
    std::vector<size_t> fault;       // touched after resume, fetched on demand
    std::vector<size_t> background;  // left for CompleteBackgroundRestore
    size_t mapped_pages = 0;         // pages the pre-resume CRIU rebuild maps
  };

  // What one restore phase read and applied (image-scale bytes; fetch_cost
  // is the fabric's cost before scaling).
  struct PhaseCost {
    SimDuration fetch_cost;
    size_t base_pages = 0;
    size_t base_bytes = 0;
    size_t remote_reads = 0;
    size_t patch_bytes = 0;
  };

  // Fingerprints of all resident pages (parallel stage; `pages[i]` indexes
  // into `cp`, the result is positionally aligned with `pages`).
  std::vector<PageFingerprint> FingerprintPages(const MemoryCheckpoint& cp,
                                                const std::vector<size_t>& pages);

  // Splits sb.patches across the restore phases for the configured mode.
  // Lazy mode also predicts and trains the working set, filling `result`'s
  // ws_* fields.
  RestorePlan PlanRestore(const Sandbox& sb, RestoreOpResult& result);

  // One restore phase over `records`: fetches their bases (one coalesced
  // ReadPageBatch when `batched`, else one ReadPage per base with ordinals
  // counting up from trace.ordinal), releases their base refs, then decodes
  // (parallel) and merges (serial, record order) the original pages back
  // into the checkpoint.
  PhaseCost RestoreRecords(Sandbox& sb, const std::vector<size_t>& records, bool batched,
                           const obs::MessageTrace& trace);

  // Tallies a completed restore op into stats_ and records its spans.
  void RecordRestore(const Sandbox& sb, SimTime now, const obs::TraceContext& op_ctx,
                     const RestoreOpResult& result, size_t patched_pages, size_t fault_pages)
      EXCLUDES(stats_mu_);

  Cluster& cluster_;
  RegistryBackend& registry_;
  RdmaFabric& fabric_;
  DedupAgentOptions options_;
  PageFingerprinter fingerprinter_;
  std::unique_ptr<ThreadPool> pool_;
  std::shared_ptr<WorkingSetTable> working_sets_;  // never null

  // Lazy restores with an outstanding background phase, keyed by sandbox.
  mutable Mutex pending_mu_{"dedup agent pending restores", LockRank::kMetrics};
  std::unordered_map<SandboxId, PendingRestore> pending_ GUARDED_BY(pending_mu_);

  // Cumulative counters; updated once per completed op, with no other lock
  // held (kMetrics is the leaf-most rank in the hierarchy).
  mutable Mutex stats_mu_{"dedup agent stats", LockRank::kMetrics};
  DedupAgentStats stats_ GUARDED_BY(stats_mu_);
};

}  // namespace medes

#endif  // MEDES_DEDUPAGENT_DEDUP_AGENT_H_
