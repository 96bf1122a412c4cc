// Simulated RDMA fabric.
//
// Medes fetches base pages from remote machines with one-sided RDMA reads
// (no remote CPU involvement, paper Section 4.2). The testbed had 10 Gbps
// NICs. We model each read's cost as
//     latency = per_read_latency + bytes / bandwidth
// with a cheaper path for node-local reads (plain memory copies). The fabric
// also routes the *actual bytes*: a PageProvider callback resolves a
// PageLocation to the bytes held by the target node's base-sandbox
// checkpoint, so reconstruction operates on real data.
//
// An optional LRU cache sits in front of the provider, keyed by
// PageLocation. Base pages are immutable while pinned and sandbox ids are
// never reused, so cached bytes can never go stale — invalidation (on base
// purge) only reclaims capacity. Hot base pages (every dedup sandbox of a
// function patches against the same base) then cost one fabric read instead
// of one per restore; a hit is charged `cache_hit_latency` (a local DRAM
// copy) instead of the modelled fabric read.
#ifndef MEDES_RDMA_RDMA_H_
#define MEDES_RDMA_RDMA_H_

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <span>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/time.h"
#include "net/transport.h"
#include "registry/fingerprint_registry.h"

namespace medes {

namespace store {
class StateStore;
}  // namespace store

struct RdmaOptions {
  // Wire model used when no shared Transport is passed to the constructor:
  // the fabric then builds a private Transport whose remote/local links come
  // from these four fields. With a shared Transport, its Topology is
  // authoritative and these are ignored.
  SimDuration per_read_latency{3};            // us, one-sided read setup
  double bandwidth_gbps = 10.0;                // NIC line rate
  SimDuration local_per_read_latency{};    // node-local copies
  double local_bandwidth_gbps = 80.0;          // DRAM-ish copy rate
  // Base-page read cache capacity in pages; 0 disables the cache.
  size_t page_cache_capacity = 0;
  // Modelled cost of serving a read from the cache (DRAM copy + bookkeeping).
  SimDuration cache_hit_latency{1};           // us
};

struct RdmaStats {
  uint64_t remote_reads = 0;
  uint64_t remote_bytes = 0;
  uint64_t local_reads = 0;
  uint64_t local_bytes = 0;
  // Batched reads (ReadPageBatch): wire messages sent (one per owner node
  // per batch) and pages fetched through them. Those pages are *also*
  // counted in remote/local_reads above — batch_* measures coalescing, the
  // read counters measure page traffic.
  uint64_t batch_messages = 0;
  uint64_t batch_pages = 0;
  // Base-page cache counters (hits never touch the fabric, so they are not
  // double-counted in the read/byte totals above). Each distinct location a
  // batched read classifies counts exactly one hit or one miss — never both.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;

  double CacheHitRate() const {
    const uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0 : static_cast<double>(cache_hits) / static_cast<double>(total);
  }
};

class RdmaError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// A read whose kBaseRead message was dropped by the transport's fault
// policy (source node partitioned, link cut, ...). Callers that can degrade
// (dedup candidate selection) catch this and treat the page as unique;
// restore paths propagate it — a restore cannot proceed without its bases.
class RdmaUnavailable : public RdmaError {
 public:
  using RdmaError::RdmaError;
};

class RdmaFabric {
 public:
  // Resolves a page location to its bytes (empty result = page unavailable).
  using PageProvider = std::function<std::vector<uint8_t>(const PageLocation&)>;

  // With a null `transport` the fabric builds a private Transport from the
  // options' wire fields, so base reads are charged as kBaseRead messages
  // either way; the platform passes its shared cluster transport.
  explicit RdmaFabric(RdmaOptions options = {}, PageProvider provider = nullptr,
                      std::shared_ptr<Transport> transport = nullptr);

  void set_provider(PageProvider provider) { provider_ = std::move(provider); }

  // One-sided read of a base page. `reader_node` decides local vs remote
  // cost. Returns the bytes and adds the modelled cost to `*cost`. Served
  // from the cache when possible (a hit charges `cache_hit_latency` locally
  // and sends no message — the bytes never cross the wire). Throws
  // RdmaUnavailable when the fault policy drops the read. `trace`, when
  // sampled, parents the kBaseRead wire span — callers supply a per-read
  // ordinal so concurrent reads get distinct, deterministic span ids.
  [[nodiscard]] std::vector<uint8_t> ReadPage(const PageLocation& location, NodeId reader_node,
                                SimDuration* cost,
                                const obs::MessageTrace& trace = {}) EXCLUDES(cache_mu_);

  // Batched one-sided read of many base pages (lazy-restore prefetch).
  // The whole batch is classified against the cache in one pass under one
  // lock: each *distinct* location counts exactly one cache hit or one cache
  // miss; duplicate occurrences within the batch alias the first copy (a
  // local DRAM copy at `cache_hit_latency`, counted as a hit only when the
  // cache exists). Misses are grouped by owner node and charged as ONE
  // kBaseReadBatch message per node carrying the group's summed bytes —
  // topology-aware coalescing: per-message link latency is paid once per
  // node instead of once per page. Results are positionally aligned with
  // `locations`. Throws RdmaUnavailable when a group's message is dropped
  // (the restore cannot proceed without its bases). `trace`, when sampled,
  // parents each group's kBaseReadBatch wire span; the owner node id is
  // folded into the ordinal so per-node groups get distinct span ids.
  [[nodiscard]] std::vector<std::vector<uint8_t>> ReadPageBatch(
      std::span<const PageLocation> locations, NodeId reader_node, SimDuration* cost,
      const obs::MessageTrace& trace = {}) EXCLUDES(cache_mu_);

  // Pure timing model (used when the caller already has byte counts):
  // LinkCost over the transport topology's default remote or local link.
  [[nodiscard]] SimDuration ReadCost(Bytes bytes, bool remote) const;

  // The transport base reads are charged through.
  const std::shared_ptr<Transport>& transport() const { return transport_; }

  // Binds the tiered state store: fabric reads that miss the page cache
  // additionally touch the page's residency entry, so demand-paging an
  // SSD-evicted base page charges the modelled cold-tier fetch into the
  // read's cost. Configuration-time only; unbound fabrics charge nothing.
  void BindStateStore(std::shared_ptr<store::StateStore> store);

  // Drops every cached page belonging to `sandbox` (called when a base
  // sandbox is purged). Pure capacity hygiene — ids are never reused.
  void InvalidateSandbox(SandboxId sandbox) EXCLUDES(cache_mu_);

  size_t CachedPages() const EXCLUDES(cache_mu_);

  // Consistent snapshot of the counters (they advance under cache_mu_).
  RdmaStats stats() const EXCLUDES(cache_mu_);
  void ResetStats() EXCLUDES(cache_mu_);

 private:
  struct CacheEntry {
    PageLocation location;
    std::vector<uint8_t> bytes;
  };

  // Returns the cached bytes or nullptr. Promotes hits to MRU.
  const std::vector<uint8_t>* CacheLookup(const PageLocation& location) REQUIRES(cache_mu_);
  void CacheInsert(const PageLocation& location, const std::vector<uint8_t>& bytes)
      REQUIRES(cache_mu_);

  RdmaOptions options_;
  PageProvider provider_;
  std::shared_ptr<Transport> transport_;
  // Optional tiering seam (see BindStateStore). Touched only at serial call
  // sites, outside cache_mu_.
  std::shared_ptr<store::StateStore> store_;

  // LRU cache: list front = most recently used. Guarded by cache_mu_ so
  // pipeline workers may share a fabric. Stats advance under the same lock
  // (they are updated on every read, cached or not).
  mutable Mutex cache_mu_{"rdma page cache", LockRank::kRdmaCache};
  RdmaStats stats_ GUARDED_BY(cache_mu_);
  std::list<CacheEntry> lru_ GUARDED_BY(cache_mu_);
  std::unordered_map<PageLocation, std::list<CacheEntry>::iterator, PageLocationHash>
      cache_index_ GUARDED_BY(cache_mu_);
};

}  // namespace medes

#endif  // MEDES_RDMA_RDMA_H_
