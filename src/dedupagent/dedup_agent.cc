#include "dedupagent/dedup_agent.h"

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "store/state_store.h"
#include "workload/access_model.h"

namespace medes {

namespace {

// Indexes of `cp`'s resident (non-zero) pages, ascending.
std::vector<size_t> ResidentPages(const MemoryCheckpoint& cp) {
  std::vector<size_t> resident;
  resident.reserve(cp.NumPages());
  for (size_t page = 0; page < cp.NumPages(); ++page) {
    if (cp.SlotState(page) == PageSlotState::kResident) {
      resident.push_back(page);
    }
  }
  return resident;
}

// Truncates modelled microseconds to a duration.
SimDuration Whole(double us) { return SimDuration{static_cast<int64_t>(us)}; }

// The agent's modelled-cost formulas. ScaledUs is the one conversion from
// measured to represented scale; durations truncate to whole microseconds
// once, last.
struct CostModel {
  const DedupAgentOptions& options;
  double scale;

  double ScaledUs(double us) const { return us * scale; }
  SimDuration Scaled(SimDuration cost) const {
    return Whole(ScaledUs(static_cast<double>(cost.value())));
  }
  SimDuration PerPageTime(SimDuration per_page, size_t pages) const {
    return Whole(ScaledUs(static_cast<double>(per_page.value()) * static_cast<double>(pages)));
  }
  // Patch encode/decode over `bytes` at patch_bytes_per_us.
  double ComputeUs(size_t bytes) const {
    return ScaledUs(static_cast<double>(bytes)) / options.patch_bytes_per_us;
  }
  SimDuration ComputeTime(size_t bytes) const { return Whole(ComputeUs(bytes)); }
  // CRIU rebuild mapping `pages` pages, plus namespace/process-tree setup.
  SimDuration CriuTime(size_t pages, bool with_namespaces) const {
    const SimDuration map = PerPageTime(options.criu.restore_per_page, pages);
    return with_namespaces ? map + options.criu.namespace_and_ptree : map;
  }
};

// Lays `stages` out as back-to-back spans from `start`, each under
// parent.Child(name): the same pure derivation the stage's wire messages
// used, so their parent links resolve. Returns the end of the last stage.
SimTime RecordStages(const obs::TraceContext& parent, const char* category, NodeId node,
                     SimTime start,
                     std::initializer_list<std::pair<const char*, SimDuration>> stages) {
  for (const auto& [name, duration] : stages) {
    obs::ScopedSpan span(name, category, start, node.value(), parent.Child(name));
    span.SetSimDuration(duration);
    start += duration;
  }
  return start;
}

// Adds one restore phase's base reads into an op result.
template <typename Phase, typename Result>
void AddReads(const Phase& phase, Result& result) {
  result.base_pages_read += phase.base_pages;
  result.base_bytes_read += phase.base_bytes;
  result.remote_reads += phase.remote_reads;
}

// The critical phase's fetch stage: eager reads every base serially under
// "restore/base_read", lazy coalesces the working set under "restore/ws_fetch".
const char* FetchStage(RestoreMode mode) {
  return mode == RestoreMode::kLazy ? "restore/ws_fetch" : "restore/base_read";
}

}  // namespace

const char* ToString(RestoreMode mode) {
  switch (mode) {
    case RestoreMode::kLazy:
      return "lazy";
    case RestoreMode::kEager:
      return "eager";
  }
  return "?";
}

DedupAgent::DedupAgent(Cluster& cluster, RegistryBackend& registry, RdmaFabric& fabric,
                       DedupAgentOptions options)
    : cluster_(cluster),
      registry_(registry),
      fabric_(fabric),
      options_(options),
      fingerprinter_(options.fingerprint),
      pool_(std::make_unique<ThreadPool>(options.num_threads)),
      working_sets_(options.working_sets != nullptr
                        ? options.working_sets
                        : std::make_shared<WorkingSetTable>(options.working_set)) {}

double DedupAgent::ScaleFactor() const {
  return static_cast<double>(1 << 20) / static_cast<double>(cluster_.options().bytes_per_mb);
}

std::vector<PageFingerprint> DedupAgent::FingerprintPages(const MemoryCheckpoint& cp,
                                                          const std::vector<size_t>& pages) {
  std::vector<PageFingerprint> fingerprints(pages.size());
  pool_->ParallelFor(0, pages.size(), [&](size_t i) {
    fingerprints[i] = fingerprinter_.FingerprintPage(cp.PageData(pages[i]));
  });
  return fingerprints;
}

DedupOpResult DedupAgent::DedupOp(Sandbox& sb, SimTime now, const obs::TraceContext& ctx) {
  if (sb.state != SandboxState::kWarm) {
    throw std::logic_error("DedupOp: sandbox must be warm");
  }
  // Span-tree skeleton for this op: every stage context is a pure function
  // of the caller's context, so message spans sent from inside ParallelFor
  // below still get deterministic ids (the batch index is the ordinal).
  const obs::TraceContext op_ctx = ctx.Child("dedup_op");
  const obs::TraceContext lookup_ctx = op_ctx.Child("dedup/registry_lookup");
  const obs::TraceContext read_ctx = op_ctx.Child("dedup/base_read");
  // Re-dedup while a lazy restore's background phase is still outstanding:
  // the fresh checkpoint captured below supersedes the old one, so release
  // the leftover base refs instead of pulling pages nobody will read.
  ReleasePatches(sb);
  sb.checkpoint.reset();
  DedupOpResult result;
  const CostModel cost{options_, ScaleFactor()};

  // 1. Memory checkpoint of the warm sandbox.
  MemoryImage image = cluster_.BuildImage(sb);
  MemoryCheckpoint cp = MemoryCheckpoint::Capture(image);
  result.pages_total = cp.NumPages();
  result.pages_zero = cp.NumZero();
  result.checkpoint_time = cost.PerPageTime(options_.criu.capture_per_page, cp.NumPages());

  const std::vector<size_t> resident = ResidentPages(cp);
  const size_t n = resident.size();
  // 2. Fingerprint every resident page (parallel).
  std::vector<PageFingerprint> fingerprints = FingerprintPages(cp, resident);

  // 3. Registry lookups, batched and fanned out (parallel; the registry's
  // striped locks let lookups proceed concurrently, and each task's
  // FindBasePagesBatch call amortises shard locking across a batch). Each
  // batch also reports its modelled cost — a pure function of the batch's
  // contents — into its own slot, so the serial sum below is identical at
  // every thread count.
  std::vector<std::vector<BasePageCandidate>> candidates(n);
  const size_t batch = std::max<size_t>(options_.lookup_batch_pages, 1);
  const size_t num_batches = (n + batch - 1) / batch;
  std::vector<SimDuration> batch_costs(num_batches);
  // Lookups leave the node once the checkpoint is captured; the batch index
  // is the ordinal, so message span ids are independent of which worker
  // issues which batch.
  const SimTime lookup_at = now + result.checkpoint_time;
  pool_->ParallelFor(0, num_batches, [&](size_t b) {
    const size_t lo = b * batch;
    const size_t hi = std::min(n, lo + batch);
    auto out = registry_.FindBasePagesBatch(
        std::span<const PageFingerprint>(fingerprints).subspan(lo, hi - lo), sb.node, sb.id,
        options_.max_base_pages_per_page, &batch_costs[b],
        obs::MessageTrace{lookup_ctx, lookup_at, b});
    std::move(out.begin(), out.end(), candidates.begin() + static_cast<ptrdiff_t>(lo));
  });
  SimDuration lookup_cost;
  for (SimDuration c : batch_costs) {
    lookup_cost += c;
  }

  // Tiered-store residency: touch each candidate base sandbox's registry
  // entry once, at this serial join (first appearance in canonical page
  // order — never inside the parallel lookup above, where worker
  // interleaving would reorder CLOCK updates). An entry evicted to the cold
  // tier charges its demand-page fetch into the op's lookup cost.
  if (options_.state_store != nullptr) {
    std::unordered_set<SandboxId> touched;
    for (size_t i = 0; i < n; ++i) {
      for (const BasePageCandidate& candidate : candidates[i]) {
        if (touched.insert(candidate.location.sandbox).second) {
          options_.state_store->TouchRegistryEntry(candidate.location.sandbox, &lookup_cost);
        }
      }
    }
  }

  // Lookup time is now final (state-store touches included); scale it here
  // so the base-read stage below knows its position in the op's timeline.
  result.lookup_time = cost.Scaled(lookup_cost);

  // 4. Base-page reads, serial in canonical page order: the fabric cache's
  // hit/miss sequence — and therefore the modelled RDMA cost — depends only
  // on page order, never on worker interleaving. A read dropped by the
  // transport's fault policy degrades that page to unique (the candidate is
  // discarded) instead of failing the op.
  SimDuration rdma_cost;
  const SimTime read_at = lookup_at + result.lookup_time;
  uint64_t read_ordinal = 0;
  std::vector<std::vector<uint8_t>> base_bytes(n);
  for (size_t i = 0; i < n; ++i) {
    if (candidates[i].empty()) {
      continue;
    }
    // The patch is computed against the concatenation of the chosen base
    // page(s); restore must fetch them all.
    base_bytes[i].reserve(candidates[i].size() * kPageSize);
    try {
      for (const BasePageCandidate& candidate : candidates[i]) {
        std::vector<uint8_t> one = fabric_.ReadPage(candidate.location, sb.node, &rdma_cost,
                                                    obs::MessageTrace{read_ctx, read_at,
                                                                      read_ordinal++});
        base_bytes[i].insert(base_bytes[i].end(), one.begin(), one.end());
      }
    } catch (const RdmaUnavailable&) {
      candidates[i].clear();  // counted unique in the merge
      base_bytes[i].clear();
    }
  }

  // 5. Delta-encode against the chosen bases (parallel; the accept decision
  // is per-page and deterministic). Each worker encodes into thread-local
  // scratch — seed-index slots and patch bytes — so the steady state
  // allocates only the exact-size copy of each accepted patch.
  std::vector<std::vector<uint8_t>> patches(n);
  std::vector<uint8_t> accepted(n, 0);
  pool_->ParallelFor(0, n, [&](size_t i) {
    if (candidates[i].empty()) {
      return;
    }
    thread_local DeltaScratch delta_scratch;
    thread_local std::vector<uint8_t> patch_buf;
    try {
      DeltaEncodeInto(base_bytes[i], cp.PageData(resident[i]), options_.delta, patch_buf,
                      &delta_scratch);
    } catch (const DeltaError&) {
      return;  // counted unique in the merge
    }
    if (static_cast<double>(patch_buf.size()) >
        options_.patch_accept_max_ratio * static_cast<double>(kPageSize)) {
      return;  // patch too big to be worth it
    }
    patches[i].assign(patch_buf.begin(), patch_buf.end());
    accepted[i] = 1;
  });

  // 6. Merge in page order: counters, refcounts, patch records, slot edits.
  for (size_t i = 0; i < n; ++i) {
    const size_t page = resident[i];
    if (accepted[i] == 0) {
      ++result.pages_unique;
      continue;
    }
    result.patch_bytes += patches[i].size();
    result.saved_bytes += kPageSize - patches[i].size();
    ++result.pages_deduped;
    const BaseSnapshot* snap = cluster_.FindBaseSnapshot(candidates[i].front().location.sandbox);
    if (snap != nullptr && snap->function == sb.function) {
      ++result.same_function_pages;
    } else {
      ++result.cross_function_pages;
    }
    PatchRecord record;
    record.page = PageIndex{static_cast<uint32_t>(page)};
    for (const BasePageCandidate& candidate : candidates[i]) {
      registry_.Ref(candidate.location.sandbox);
      record.bases.push_back(candidate.location);
    }
    sb.patches.push_back(std::move(record));
    cp.ReplaceWithPatch(page, std::move(patches[i]));
  }
  // Zero pages also count as saved memory relative to the warm state.
  result.saved_bytes += result.pages_zero * kPageSize;

  const SimDuration base_read_time = cost.Scaled(rdma_cost);
  result.patch_time = base_read_time + cost.ComputeTime(result.patch_bytes);
  result.total_time = result.checkpoint_time + result.lookup_time + result.patch_time;

  // Prepare namespaces / process tree now so dedup starts skip it.
  cp.set_namespaces_prepared(true);
  sb.namespaces_prepared = true;
  if (!options_.keep_payloads) {
    cp.DropPayloads();
  }
  sb.checkpoint = std::move(cp);
  cluster_.MarkDedup(sb, now);
  {
    MutexLock lock(stats_mu_);
    ++stats_.dedup_ops;
    stats_.pages_deduped += result.pages_deduped;
    stats_.pages_unique += result.pages_unique;
    stats_.patch_bytes += result.patch_bytes;
    stats_.saved_bytes += result.saved_bytes;
    StageLatencies& lat = stats_.latency;
    lat.dedup_op.Record(result.total_time);
    lat.dedup_checkpoint.Record(result.checkpoint_time);
    lat.dedup_lookup.Record(result.lookup_time);
    lat.dedup_patch.Record(result.patch_time);
  }
  if (obs::TraceEnabled()) {
    // One span per pipeline stage, laid out sequentially from `now` in the
    // op's modelled timeline. Base reads and delta encoding split patch_time
    // into its wire and compute terms.
    obs::ScopedSpan op("dedup_op", "dedup", now, sb.node.value(), op_ctx);
    op.SetSimDuration(result.total_time);
    op.AddArg("pages", static_cast<int64_t>(result.pages_total));
    op.AddArg("deduped", static_cast<int64_t>(result.pages_deduped));
    op.AddArg("patch_bytes", static_cast<int64_t>(result.patch_bytes));
    const SimTime merge_at =
        RecordStages(op_ctx, "dedup", sb.node, now,
                     {{"dedup/checkpoint", result.checkpoint_time},
                      {"dedup/fingerprint", SimDuration{}},
                      {"dedup/registry_lookup", result.lookup_time},
                      {"dedup/base_read", base_read_time},
                      {"dedup/delta_encode", result.patch_time - base_read_time}});
    obs::RecordInstant("dedup/merge", "dedup", merge_at, sb.node.value(),
                       op_ctx.Child("dedup/merge"));
  }
  return result;
}

RestoreOpResult DedupAgent::RestoreOp(Sandbox& sb, SimTime now, bool verify,
                                      const obs::TraceContext& ctx) {
  if (sb.state != SandboxState::kDedup || !sb.checkpoint.has_value()) {
    throw std::logic_error("RestoreOp: sandbox not in dedup state");
  }
  const obs::TraceContext op_ctx = ctx.Child("restore_op");
  RestoreOpResult result;
  result.mode = options_.restore_mode;
  const bool lazy = result.mode == RestoreMode::kLazy;
  const size_t patched_pages = sb.patches.size();
  const RestorePlan plan = PlanRestore(sb, result);
  const CostModel cost{options_, ScaleFactor()};

  // 1. Critical phase, gating resume: the three Fig. 8 components. Eager
  // reads serially in record order (deterministic cache behaviour — see
  // DedupOp); lazy sends one coalesced batch per owner node.
  const PhaseCost critical =
      RestoreRecords(sb, plan.critical, /*batched=*/lazy,
                     obs::MessageTrace{op_ctx.Child(FetchStage(result.mode)), now, 0});
  AddReads(critical, result);
  result.read_base_time = cost.Scaled(critical.fetch_cost);
  result.compute_time = cost.ComputeTime(critical.base_bytes + critical.patch_bytes);
  result.sandbox_restore_time = cost.CriuTime(plan.mapped_pages, !sb.namespaces_prepared);
  result.critical_path_time =
      result.read_base_time + result.compute_time + result.sandbox_restore_time;

  // 2. Demand faults (lazy only): touched pages the prediction missed.
  // Still-patched ones pay an unbatched on-demand fetch + decode, anchored
  // after resume; every mispredicted touch pays the minor-fault trap cost.
  // This is the penalty that keeps a bad working set from being free, and
  // the platform charges it to the request's startup.
  const PhaseCost fault = RestoreRecords(
      sb, plan.fault, /*batched=*/false,
      obs::MessageTrace{op_ctx.Child("restore/fault_fetch"), now + result.critical_path_time, 0});
  AddReads(fault, result);
  const double fault_us = static_cast<double>(options_.minor_fault_cost.value()) *
                             static_cast<double>(result.ws_fault_pages) +
                         static_cast<double>(options_.major_fault_cost.value()) *
                             static_cast<double>(plan.fault.size()) +
                         static_cast<double>(fault.fetch_cost.value());
  result.fault_time =
      Whole(cost.ScaledUs(fault_us) + cost.ComputeUs(fault.base_bytes + fault.patch_bytes));
  result.total_time = result.critical_path_time + result.fault_time;

  // 3. With nothing deferred the restore completed in one phase: verify now
  // and release the checkpoint. Otherwise keep the background records (and
  // their base refs) on the sandbox and remember the expected image digest —
  // the source image regenerates differently once the sandbox runs again,
  // so verification must pin it here.
  verify = verify && !sb.checkpoint->payloads_dropped();
  result.background_pages = plan.background.size();
  result.background_pending = !plan.background.empty();
  if (!result.background_pending) {
    if (verify) {
      const std::vector<uint8_t> reconstructed = sb.checkpoint->ToBytes();
      const MemoryImage original = cluster_.BuildImage(sb);
      if (reconstructed.size() != original.SizeBytes() ||
          std::memcmp(reconstructed.data(), original.bytes().data(), reconstructed.size()) != 0) {
        throw std::logic_error("RestoreOp: reconstruction does not match the original image");
      }
      result.verified = true;
    }
    sb.patches.clear();
    cluster_.MarkRestored(sb, now);
  } else {
    std::vector<PatchRecord> remaining;
    remaining.reserve(plan.background.size());
    for (size_t idx : plan.background) {
      remaining.push_back(std::move(sb.patches[idx]));
    }
    sb.patches = std::move(remaining);
    PendingRestore pending;
    pending.verify = verify;
    pending.ctx = op_ctx;
    if (verify) {
      pending.expected = Sha1::Hash(cluster_.BuildImage(sb).bytes());
    }
    {
      MutexLock lock(pending_mu_);
      pending_[sb.id] = pending;
    }
    cluster_.MarkRestored(sb, now, /*release_checkpoint=*/false);
  }
  RecordRestore(sb, now, op_ctx, result, patched_pages, plan.fault.size());
  return result;
}

DedupAgent::RestorePlan DedupAgent::PlanRestore(const Sandbox& sb, RestoreOpResult& result) {
  const size_t num_pages = sb.checkpoint->NumPages();
  RestorePlan plan;
  if (result.mode == RestoreMode::kEager) {
    // Every record before resume, CRIU over the whole image, and no
    // working-set training.
    plan.critical.resize(sb.patches.size());
    std::iota(plan.critical.begin(), plan.critical.end(), size_t{0});
    plan.mapped_pages = num_pages;
    return plan;
  }
  // Predict the working set from *prior* invocations, then model the
  // upcoming invocation's touched pages and fold them into the EMA. An
  // unprofiled function prefetches the full image — the self-warming first
  // restore behaves exactly like an eager one (minus read batching).
  std::optional<std::vector<PageIndex>> predicted =
      working_sets_->Predict(sb.function, num_pages);
  std::vector<uint8_t> in_ws(num_pages, 1);
  if (predicted.has_value()) {
    std::fill(in_ws.begin(), in_ws.end(), 0);
    for (PageIndex p : *predicted) {
      in_ws[p.value()] = 1;
    }
    result.ws_predicted_pages = predicted->size();
  } else {
    result.ws_predicted_pages = num_pages;
  }
  plan.mapped_pages = result.ws_predicted_pages;
  const std::vector<PageIndex> touched =
      PostResumeAccessTrace(cluster_.ProfileOf(sb), num_pages, sb.generation + 1);
  result.ws_touched_pages = touched.size();
  std::vector<uint8_t> touched_map(num_pages, 0);
  for (PageIndex p : touched) {
    touched_map[p.value()] = 1;
    if (in_ws[p.value()] != 0) {
      ++result.ws_hit_pages;
    } else {
      ++result.ws_fault_pages;
    }
  }
  working_sets_->Record(sb.function, touched, num_pages);

  // Critical path (predicted working set), demand faults (touched but not
  // predicted), background (everything else).
  for (size_t i = 0; i < sb.patches.size(); ++i) {
    const uint32_t page = sb.patches[i].page.value();
    if (in_ws[page] != 0) {
      plan.critical.push_back(i);
    } else if (touched_map[page] != 0) {
      plan.fault.push_back(i);
    } else {
      plan.background.push_back(i);
    }
  }
  return plan;
}

DedupAgent::PhaseCost DedupAgent::RestoreRecords(Sandbox& sb, const std::vector<size_t>& records,
                                                 bool batched, const obs::MessageTrace& trace) {
  PhaseCost phase;
  MemoryCheckpoint& cp = *sb.checkpoint;
  std::vector<std::vector<uint8_t>> batch;
  if (batched) {
    std::vector<PageLocation> locations;
    locations.reserve(records.size());
    for (size_t idx : records) {
      const std::vector<PageLocation>& bases = sb.patches[idx].bases;
      locations.insert(locations.end(), bases.begin(), bases.end());
    }
    batch = fabric_.ReadPageBatch(locations, sb.node, &phase.fetch_cost, trace);
  }
  // Per-base accounting in record order. A serial read happens here, so its
  // fabric cache hit/miss sequence follows record order too.
  std::vector<std::vector<uint8_t>> base_bytes(records.size());
  size_t batch_index = 0;
  uint64_t ordinal = trace.ordinal;
  for (size_t j = 0; j < records.size(); ++j) {
    const PatchRecord& record = sb.patches[records[j]];
    base_bytes[j].reserve(record.bases.size() * kPageSize);
    for (const PageLocation& base : record.bases) {
      std::vector<uint8_t> one =
          batched ? std::move(batch[batch_index++])
                  : fabric_.ReadPage(base, sb.node, &phase.fetch_cost,
                                     obs::MessageTrace{trace.ctx, trace.at, ordinal++});
      ++phase.base_pages;
      phase.base_bytes += one.size();
      if (base.node != sb.node) {
        ++phase.remote_reads;
      }
      base_bytes[j].insert(base_bytes[j].end(), one.begin(), one.end());
      registry_.Unref(base.sandbox);
    }
    phase.patch_bytes += cp.PatchSize(record.page.value());
  }

  // Decode (parallel) straight into each output slot — the reconstructed
  // page is required storage anyway, and the pre-sized single-pass decode
  // avoids the growth reallocations DeltaDecode's incremental append would
  // incur — then merge in record order.
  const bool payloads = !cp.payloads_dropped();
  std::vector<std::vector<uint8_t>> originals(records.size());
  pool_->ParallelFor(0, records.size(), [&](size_t j) {
    if (payloads) {
      DeltaDecodeInto(base_bytes[j], cp.PatchData(sb.patches[records[j]].page.value()),
                      originals[j]);
    } else {
      originals[j] = std::vector<uint8_t>(kPageSize, 0);
    }
  });
  for (size_t j = 0; j < records.size(); ++j) {
    cp.RestorePage(sb.patches[records[j]].page.value(), std::move(originals[j]));
  }
  return phase;
}

void DedupAgent::RecordRestore(const Sandbox& sb, SimTime now, const obs::TraceContext& op_ctx,
                               const RestoreOpResult& result, size_t patched_pages,
                               size_t fault_pages) {
  const bool lazy = result.mode == RestoreMode::kLazy;
  {
    MutexLock lock(stats_mu_);
    ++stats_.restore_ops;
    stats_.pages_restored += patched_pages - result.background_pages;
    stats_.base_pages_read += result.base_pages_read;
    stats_.base_bytes_read += result.base_bytes_read;
    StageLatencies& lat = stats_.latency;
    lat.restore_op.Record(result.total_time);
    lat.restore_base_read.Record(result.read_base_time);
    lat.restore_compute.Record(result.compute_time);
    lat.restore_criu.Record(result.sandbox_restore_time);
    LazyRestoreStats& lz = stats_.lazy;
    if (lazy) {
      ++lz.lazy_restores;
      lz.ws_predicted_pages += result.ws_predicted_pages;
      lz.ws_touched_pages += result.ws_touched_pages;
      lz.ws_hit_pages += result.ws_hit_pages;
      lz.ws_fault_pages += result.ws_fault_pages;
      lz.background_deferred_pages += result.background_pages;
      lz.fault_ms += ToMillis(result.fault_time);
      lat.restore_critical.Record(result.critical_path_time);
      lat.restore_fault.Record(result.fault_time);
    } else {
      ++lz.eager_restores;
    }
    lz.critical_path_ms.Record(ToMillis(result.critical_path_time));
  }
  if (obs::TraceEnabled()) {
    // The three restore components of the paper's Fig. 8, sequential in the
    // modelled timeline: base page reading, original page computing, and
    // sandbox restoration (CRIU rebuild). The fault penalty is an arg on the
    // op span (it has no fixed position in the modelled timeline).
    obs::ScopedSpan op("restore_op", "restore", now, sb.node.value(), op_ctx);
    op.SetSimDuration(result.total_time);
    op.AddArg("patched_pages", static_cast<int64_t>(patched_pages));
    if (lazy) {
      op.AddArg("ws_predicted", static_cast<int64_t>(result.ws_predicted_pages));
      op.AddArg("ws_hits", static_cast<int64_t>(result.ws_hit_pages));
      op.AddArg("ws_faults", static_cast<int64_t>(result.ws_fault_pages));
      op.AddArg("background_pages", static_cast<int64_t>(result.background_pages));
      op.AddArg("fault_us", result.fault_time.value());
    } else {
      op.AddArg("base_pages_read", static_cast<int64_t>(result.base_pages_read));
      op.AddArg("remote_reads", static_cast<int64_t>(result.remote_reads));
    }
    const SimTime resumed = RecordStages(op_ctx, "restore", sb.node, now,
                                         {{FetchStage(result.mode), result.read_base_time},
                                          {"restore/patch_apply", result.compute_time},
                                          {"restore/criu_rebuild", result.sandbox_restore_time}});
    if (fault_pages > 0) {
      // Anchors the on-demand fetches' wire spans: they were parented to
      // this context, so it must be recorded for parent links to resolve.
      obs::ScopedSpan faults("restore/fault_fetch", "restore", resumed, sb.node.value(),
                             op_ctx.Child("restore/fault_fetch"));
      faults.SetSimDuration(result.fault_time);
      faults.AddArg("pages", static_cast<int64_t>(fault_pages));
    }
  }
}

BackgroundRestoreResult DedupAgent::CompleteBackgroundRestore(Sandbox& sb, SimTime now) {
  PendingRestore pending;
  {
    MutexLock lock(pending_mu_);
    auto it = pending_.find(sb.id);
    if (it == pending_.end()) {
      return {};
    }
    pending = it->second;
    pending_.erase(it);
  }
  if (!sb.checkpoint.has_value()) {
    return {};  // superseded (re-deduped) between scheduling and firing
  }
  BackgroundRestoreResult result;

  // Same trace as the restore op that deferred this work: the background
  // span is a child of the op span captured in the pending record.
  const obs::TraceContext bg_ctx = pending.ctx.Child("restore/bg_fault");
  std::vector<size_t> records(sb.patches.size());
  std::iota(records.begin(), records.end(), size_t{0});
  const PhaseCost phase =
      RestoreRecords(sb, records, /*batched=*/true, obs::MessageTrace{bg_ctx, now, 0});
  AddReads(phase, result);
  result.pages = records.size();
  const CostModel cost{options_, ScaleFactor()};
  result.total_time = cost.Scaled(phase.fetch_cost) +
                      cost.ComputeTime(phase.base_bytes + phase.patch_bytes) +
                      cost.CriuTime(result.pages, /*with_namespaces=*/false);

  if (pending.verify && !sb.checkpoint->payloads_dropped()) {
    if (Sha1::Hash(sb.checkpoint->ToBytes()) != pending.expected) {
      throw std::logic_error(
          "CompleteBackgroundRestore: reconstruction does not match the image digest");
    }
    result.verified = true;
  }
  sb.patches.clear();
  sb.checkpoint.reset();

  {
    MutexLock lock(stats_mu_);
    stats_.pages_restored += result.pages;
    stats_.base_pages_read += result.base_pages_read;
    stats_.base_bytes_read += result.base_bytes_read;
    ++stats_.lazy.background_completions;
    stats_.lazy.background_pages += result.pages;
    stats_.lazy.background_ms += ToMillis(result.total_time);
    stats_.latency.restore_background.Record(result.total_time);
  }
  if (obs::TraceEnabled()) {
    obs::ScopedSpan span("restore/bg_fault", "restore", now, sb.node.value(), bg_ctx);
    span.SetSimDuration(result.total_time);
    span.AddArg("pages", static_cast<int64_t>(result.pages));
    span.AddArg("base_pages_read", static_cast<int64_t>(result.base_pages_read));
    span.AddArg("verified", static_cast<int64_t>(result.verified ? 1 : 0));
  }
  return result;
}

bool DedupAgent::HasPendingBackgroundRestore(SandboxId id) const {
  MutexLock lock(pending_mu_);
  return pending_.contains(id);
}

void DedupAgent::ReleasePatches(Sandbox& sb) {
  for (const PatchRecord& record : sb.patches) {
    for (const PageLocation& base : record.bases) {
      registry_.Unref(base.sandbox);
    }
  }
  sb.patches.clear();
  MutexLock lock(pending_mu_);
  pending_.erase(sb.id);
}

BaseSnapshot& DedupAgent::DesignateBase(Sandbox& sb, SimTime now, const obs::TraceContext& ctx) {
  if (sb.state != SandboxState::kWarm) {
    throw std::logic_error("DesignateBase: sandbox must be warm");
  }
  // Recorded even when untraced (legacy behaviourally invisible: spans
  // without ids only appear once tracing is on). The designation span
  // anchors the registry-insert wire spans sent below.
  const obs::TraceContext designate_ctx = ctx.Child("designate_base");
  obs::ScopedSpan designate("designate_base", "dedup", now, sb.node.value(), designate_ctx);
  MemoryImage image = cluster_.BuildImage(sb);
  MemoryCheckpoint cp = MemoryCheckpoint::Capture(image);
  const std::vector<size_t> resident = ResidentPages(cp);
  std::vector<PageFingerprint> resident_fps = FingerprintPages(cp, resident);
  // Zero pages keep empty fingerprints (not inserted into the registry).
  std::vector<PageFingerprint> fingerprints(cp.NumPages());
  for (size_t i = 0; i < resident.size(); ++i) {
    fingerprints[resident[i]] = std::move(resident_fps[i]);
  }
  registry_.InsertBaseSandbox(sb.node, sb.id, fingerprints,
                              obs::MessageTrace{designate_ctx, now, 0});
  // Append the base's resident pages to the tiered store — but only when
  // the insert actually registered (a transport drop leaves the sandbox
  // unregistered, and an unregistered base must not be durable either).
  if (options_.state_store != nullptr && registry_.IsBaseSandbox(sb.id)) {
    obs::ScopedSpan span("store/base_append", "store", SimTime{});
    for (size_t page : resident) {
      options_.state_store->AppendBasePage(sb.node, sb.id, PageIndex{static_cast<uint32_t>(page)},
                                           cp.PageData(page));
    }
    span.AddArg("pages", static_cast<int64_t>(resident.size()));
  }
  {
    MutexLock lock(stats_mu_);
    ++stats_.bases_designated;
  }
  return cluster_.AddBaseSnapshot(sb, std::move(cp));
}

DedupAgentStats DedupAgent::stats() const {
  MutexLock lock(stats_mu_);
  return stats_;
}

}  // namespace medes
