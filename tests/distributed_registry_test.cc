#include "registry/distributed_registry.h"

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <span>

#include "common/rng.h"
#include "net/transport.h"

namespace medes {
namespace {

DistributedRegistryOptions Opts(int num_shards, int replication_factor = 3) {
  DistributedRegistryOptions opts;
  opts.num_shards = num_shards;
  opts.replication_factor = replication_factor;
  return opts;
}

// Random fingerprints whose keys spread across shards.
std::vector<PageFingerprint> RandomFingerprints(size_t pages, uint64_t seed) {
  Rng rng(seed);
  std::vector<PageFingerprint> fps(pages);
  for (auto& fp : fps) {
    for (int c = 0; c < 5; ++c) {
      fp.chunks.push_back({rng.Next(), static_cast<uint32_t>(c * 64)});
    }
  }
  return fps;
}

TEST(DistributedRegistryTest, AgreesWithCentralizedRegistry) {
  DistributedRegistry dist(Opts(4));
  FingerprintRegistry central;
  auto fps_a = RandomFingerprints(40, 1);
  auto fps_b = RandomFingerprints(40, 2);
  dist.InsertBaseSandbox(NodeId{0}, SandboxId{100}, fps_a);
  dist.InsertBaseSandbox(NodeId{1}, SandboxId{200}, fps_b);
  central.InsertBaseSandbox(NodeId{0}, SandboxId{100}, fps_a);
  central.InsertBaseSandbox(NodeId{1}, SandboxId{200}, fps_b);

  // Probe with fingerprints overlapping both sandboxes' pages.
  for (size_t p = 0; p < 40; ++p) {
    PageFingerprint probe = fps_a[p];
    probe.chunks.pop_back();
    probe.chunks.push_back(fps_b[p].chunks[0]);
    auto d = dist.FindBasePage(probe, NodeId{0});
    auto c = central.FindBasePage(probe, NodeId{0});
    ASSERT_EQ(d.has_value(), c.has_value()) << "page " << p;
    if (d.has_value()) {
      EXPECT_EQ(d->location, c->location) << "page " << p;
      EXPECT_EQ(d->overlap, c->overlap) << "page " << p;
    }
  }
}

TEST(DistributedRegistryTest, ShardingSpreadsKeys) {
  DistributedRegistry dist(Opts(8, 1));
  dist.InsertBaseSandbox(NodeId{0}, SandboxId{100}, RandomFingerprints(200, 3));
  // Probe many random fingerprints to exercise lookups on all shards.
  for (const auto& fp : RandomFingerprints(200, 3)) {
    (void)dist.FindBasePage(fp, NodeId{0});
  }
  const auto& stats = dist.distributed_stats();
  size_t active_shards = 0;
  for (uint64_t lookups : stats.lookups_per_shard) {
    active_shards += (lookups > 0) ? 1 : 0;
  }
  EXPECT_EQ(active_shards, 8u) << "uniform keys must hit every shard";
}

TEST(DistributedRegistryTest, SurvivesTailFailure) {
  DistributedRegistry dist(Opts(2));
  auto fps = RandomFingerprints(20, 4);
  dist.InsertBaseSandbox(NodeId{0}, SandboxId{100}, fps);
  // Kill the tail replica of both shards: reads fail over to the middle.
  dist.FailReplica(0, 2);
  dist.FailReplica(1, 2);
  for (const auto& fp : fps) {
    auto hit = dist.FindBasePage(fp, NodeId{0}, /*exclude_sandbox=*/SandboxId{0});
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->location.sandbox, SandboxId{100});
  }
  EXPECT_GT(dist.distributed_stats().failovers, 0u);
}

TEST(DistributedRegistryTest, SurvivesAllButOneReplica) {
  DistributedRegistry dist(Opts(1));
  auto fps = RandomFingerprints(10, 5);
  dist.InsertBaseSandbox(NodeId{0}, SandboxId{100}, fps);
  dist.FailReplica(0, 0);
  dist.FailReplica(0, 2);
  for (const auto& fp : fps) {
    EXPECT_TRUE(dist.FindBasePage(fp, NodeId{0}).has_value());
  }
}

TEST(DistributedRegistryTest, WholeShardDownDegradesGracefully) {
  DistributedRegistry dist(Opts(1, 2));
  auto fps = RandomFingerprints(10, 6);
  dist.InsertBaseSandbox(NodeId{0}, SandboxId{100}, fps);
  dist.FailReplica(0, 0);
  dist.FailReplica(0, 1);
  EXPECT_FALSE(dist.ShardAvailable(0));
  EXPECT_FALSE(dist.FindBasePage(fps[0], NodeId{0}).has_value());
  EXPECT_GT(dist.distributed_stats().unavailable_lookups, 0u);
  // Writes to a dead shard are dropped but do not crash.
  dist.InsertBaseSandbox(NodeId{0}, SandboxId{200}, RandomFingerprints(5, 7));
  EXPECT_GT(dist.distributed_stats().dropped_writes, 0u);
}

TEST(DistributedRegistryTest, RecoveryResyncsState) {
  DistributedRegistry dist(Opts(1));
  auto before = RandomFingerprints(10, 8);
  dist.InsertBaseSandbox(NodeId{0}, SandboxId{100}, before);
  dist.FailReplica(0, 1);
  // Writes continue while the replica is down.
  auto during = RandomFingerprints(10, 9);
  dist.InsertBaseSandbox(NodeId{0}, SandboxId{200}, during);
  dist.RecoverReplica(0, 1);
  // Now kill everyone else; the recovered replica must serve *all* state.
  dist.FailReplica(0, 0);
  dist.FailReplica(0, 2);
  for (const auto& fp : before) {
    auto hit = dist.FindBasePage(fp, NodeId{0});
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->location.sandbox, SandboxId{100});
  }
  for (const auto& fp : during) {
    auto hit = dist.FindBasePage(fp, NodeId{0});
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->location.sandbox, SandboxId{200});
  }
}

TEST(DistributedRegistryTest, RefcountsSurviveFailover) {
  DistributedRegistry dist(Opts(4));
  dist.InsertBaseSandbox(NodeId{0}, SandboxId{100}, RandomFingerprints(5, 10));
  dist.Ref(SandboxId{100});
  dist.Ref(SandboxId{100});
  EXPECT_EQ(dist.RefCount(SandboxId{100}), 2);
  // Kill the tail of every shard; the sandbox's home shard fails over.
  for (int s = 0; s < 4; ++s) {
    dist.FailReplica(s, 2);
  }
  EXPECT_EQ(dist.RefCount(SandboxId{100}), 2);
  dist.Unref(SandboxId{100});
  EXPECT_EQ(dist.RefCount(SandboxId{100}), 1);
  EXPECT_TRUE(dist.IsBaseSandbox(SandboxId{100}));
}

TEST(DistributedRegistryTest, RemoveBaseSandboxEverywhere) {
  DistributedRegistry dist(Opts(4, 2));
  auto fps = RandomFingerprints(20, 11);
  dist.InsertBaseSandbox(NodeId{0}, SandboxId{100}, fps);
  dist.RemoveBaseSandbox(SandboxId{100});
  for (const auto& fp : fps) {
    EXPECT_FALSE(dist.FindBasePage(fp, NodeId{0}).has_value());
  }
  EXPECT_FALSE(dist.IsBaseSandbox(SandboxId{100}));
  RegistryStats stats = dist.stats();
  EXPECT_EQ(stats.num_entries, 0u);
}

TEST(DistributedRegistryTest, PageLookupLatencyShrinksWithShards) {
  DistributedRegistry one(Opts(1, 1));
  DistributedRegistry eight(Opts(8, 1));
  EXPECT_GT(one.PageLookupLatency(8), eight.PageLookupLatency(8));
  EXPECT_EQ(one.PageLookupLatency(0), SimDuration{0});
}

TEST(DistributedRegistryTest, InvalidOptionsRejected) {
  EXPECT_THROW(DistributedRegistry(Opts(0)), std::invalid_argument);
  EXPECT_THROW(DistributedRegistry(Opts(2, 0)),
               std::invalid_argument);
}

// ---- Transport fault seam: partitions instead of FailReplica ------------

struct FaultyNet {
  FaultyNet()
      : transport(std::make_shared<Transport>()), policy(std::make_shared<StaticFaultPolicy>()) {
    transport->InstallFaultPolicy(policy);
  }
  std::shared_ptr<Transport> transport;
  std::shared_ptr<StaticFaultPolicy> policy;
};

TEST(DistributedRegistryTransportTest, PartitionedTailFailsOverToPrecedingReplica) {
  FaultyNet net;
  DistributedRegistry dist(Opts(1), net.transport);
  auto fps = RandomFingerprints(20, 21);
  dist.InsertBaseSandbox(NodeId{0}, SandboxId{100}, fps);

  // Partition the tail replica's transport node mid-workload: reads must
  // fall back to the preceding live replica, writes keep flowing.
  net.policy->PartitionNode(dist.ReplicaNode(0, 2));
  for (const auto& fp : fps) {
    auto hit = dist.FindBasePage(fp, NodeId{0});
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->location.sandbox, SandboxId{100});
  }
  EXPECT_GT(dist.distributed_stats().failovers, 0u);
  dist.InsertBaseSandbox(NodeId{0}, SandboxId{200}, RandomFingerprints(5, 22));
  EXPECT_EQ(dist.distributed_stats().dropped_writes, 0u);
  EXPECT_EQ(dist.distributed_stats().unavailable_lookups, 0u);
}

TEST(DistributedRegistryTransportTest, FullyPartitionedShardDegradesGracefully) {
  FaultyNet net;
  DistributedRegistry dist(Opts(1, 2), net.transport);
  auto fps = RandomFingerprints(10, 23);
  dist.InsertBaseSandbox(NodeId{0}, SandboxId{100}, fps);
  net.policy->PartitionNode(dist.ReplicaNode(0, 0));
  net.policy->PartitionNode(dist.ReplicaNode(0, 1));
  EXPECT_FALSE(dist.ShardAvailable(0));
  EXPECT_FALSE(dist.FindBasePage(fps[0], NodeId{0}).has_value());
  EXPECT_GT(dist.distributed_stats().unavailable_lookups, 0u);
  dist.InsertBaseSandbox(NodeId{0}, SandboxId{200}, RandomFingerprints(5, 24));
  EXPECT_GT(dist.distributed_stats().dropped_writes, 0u);
}

TEST(DistributedRegistryTransportTest, HealedStaleReplicaResyncsFromLivePeer) {
  FaultyNet net;
  DistributedRegistry dist(Opts(1), net.transport);
  auto before = RandomFingerprints(10, 25);
  dist.InsertBaseSandbox(NodeId{0}, SandboxId{100}, before);

  // The tail misses writes while partitioned.
  const NodeId tail_node = dist.ReplicaNode(0, 2);
  net.policy->PartitionNode(tail_node);
  auto during = RandomFingerprints(10, 26);
  dist.InsertBaseSandbox(NodeId{0}, SandboxId{200}, during);

  // A resync attempt against the still-partitioned replica is dropped and
  // must not copy anything.
  dist.RecoverReplica(0, 2);
  EXPECT_EQ(net.transport->stats().For(MessageType::kReplicaSync).dropped, 1u);

  // After healing, the tail serves reads again — but it is *stale*: the
  // writes it missed are invisible until a resync.
  net.policy->HealNode(tail_node);
  EXPECT_FALSE(dist.FindBasePage(during[0], NodeId{0}).has_value());
  for (const auto& fp : before) {
    ASSERT_TRUE(dist.FindBasePage(fp, NodeId{0}).has_value());
  }

  // RecoverReplica re-syncs the full state from a live peer over the
  // transport (one kReplicaSync transfer) and restores read-your-writes.
  dist.RecoverReplica(0, 2);
  const TransportStats net_stats = net.transport->stats();
  const MessageStats& sync = net_stats.For(MessageType::kReplicaSync);
  EXPECT_EQ(sync.messages, 2u);
  EXPECT_EQ(sync.dropped, 1u);
  EXPECT_GT(sync.bytes, 0u);
  for (const auto& fp : during) {
    auto hit = dist.FindBasePage(fp, NodeId{0});
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->location.sandbox, SandboxId{200});
  }
}

TEST(DistributedRegistryTransportTest, LookupsAndInsertsChargeTheTransport) {
  FaultyNet net;
  DistributedRegistry dist(Opts(2), net.transport);
  dist.InsertBaseSandbox(NodeId{0}, SandboxId{100}, RandomFingerprints(20, 27));
  const TransportStats after_insert = net.transport->stats();
  const MessageStats& inserts = after_insert.For(MessageType::kRegistryInsert);
  EXPECT_GT(inserts.messages, 0u);
  EXPECT_GT(inserts.bytes, 0u);

  SimDuration cost;
  auto probes = RandomFingerprints(8, 27);
  (void)dist.FindBasePagesBatch(std::span<const PageFingerprint>(probes), NodeId{0},
                              kNoSandbox, 1, &cost);
  EXPECT_GT(cost, SimDuration{0});
  const TransportStats after_lookup = net.transport->stats();
  const MessageStats& lookups = after_lookup.For(MessageType::kRegistryLookup);
  EXPECT_GT(lookups.messages, 0u);
  // Each touched shard counts the batch pages it served; with keys spread
  // over 2 shards that is between 1x and 2x the page count.
  EXPECT_GE(lookups.requests, 8u);
  EXPECT_LE(lookups.requests, 16u);
}

TEST(DistributedRegistryTest, ShardOfIsStable) {
  DistributedRegistry dist(Opts(4, 1));
  std::set<int> seen;
  for (uint64_t k = 0; k < 64; ++k) {
    int s = dist.ShardOf(k);
    EXPECT_EQ(s, dist.ShardOf(k));
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 4);
    seen.insert(s);
  }
  EXPECT_EQ(seen.size(), 4u);
}

}  // namespace
}  // namespace medes
