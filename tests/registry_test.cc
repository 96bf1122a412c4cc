#include "registry/fingerprint_registry.h"

#include <gtest/gtest.h>

#include <vector>

namespace medes {
namespace {

PageFingerprint Fp(std::initializer_list<uint64_t> keys) {
  PageFingerprint fp;
  uint32_t offset = 0;
  for (uint64_t k : keys) {
    fp.chunks.push_back({k, offset});
    offset += 64;
  }
  return fp;
}

TEST(RegistryTest, EmptyLookupReturnsNothing) {
  FingerprintRegistry registry;
  EXPECT_FALSE(registry.FindBasePage(Fp({1, 2, 3}), NodeId{0}).has_value());
}

TEST(RegistryTest, ExactMatchWins) {
  FingerprintRegistry registry;
  registry.InsertBaseSandbox(NodeId{0}, SandboxId{100}, {Fp({1, 2, 3, 4, 5}), Fp({6, 7, 8, 9, 10})});
  auto hit = registry.FindBasePage(Fp({1, 2, 3, 4, 5}), NodeId{0});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->location.sandbox, SandboxId{100});
  EXPECT_EQ(hit->location.page_index, PageIndex{0});
  EXPECT_EQ(hit->overlap, 5);
}

TEST(RegistryTest, MaxOverlapPreferred) {
  FingerprintRegistry registry;
  registry.InsertBaseSandbox(NodeId{0}, SandboxId{100}, {Fp({1, 2, 3, 90, 91})});
  registry.InsertBaseSandbox(NodeId{0}, SandboxId{200}, {Fp({1, 2, 3, 4, 92})});
  auto hit = registry.FindBasePage(Fp({1, 2, 3, 4, 5}), NodeId{0});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->location.sandbox, SandboxId{200});
  EXPECT_EQ(hit->overlap, 4);
}

TEST(RegistryTest, TieBreaksPreferLocalNode) {
  FingerprintRegistry registry;
  registry.InsertBaseSandbox(NodeId{3}, SandboxId{100}, {Fp({1, 2, 3, 4, 5})});
  registry.InsertBaseSandbox(NodeId{7}, SandboxId{200}, {Fp({1, 2, 3, 4, 5})});
  auto hit = registry.FindBasePage(Fp({1, 2, 3, 4, 5}), NodeId{7});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->location.node, NodeId{7});
}

TEST(RegistryTest, TieWithoutLocalIsDeterministic) {
  FingerprintRegistry registry;
  registry.InsertBaseSandbox(NodeId{3}, SandboxId{200}, {Fp({1, 2, 3})});
  registry.InsertBaseSandbox(NodeId{5}, SandboxId{100}, {Fp({1, 2, 3})});
  auto hit = registry.FindBasePage(Fp({1, 2, 3}), NodeId{9});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->location.sandbox, SandboxId{100}) << "lowest sandbox id wins deterministic ties";
}

TEST(RegistryTest, ExcludeSandboxSkipsOwnPages) {
  FingerprintRegistry registry;
  registry.InsertBaseSandbox(NodeId{0}, SandboxId{100}, {Fp({1, 2, 3, 4, 5})});
  auto hit = registry.FindBasePage(Fp({1, 2, 3, 4, 5}), NodeId{0}, /*exclude_sandbox=*/SandboxId{100});
  EXPECT_FALSE(hit.has_value());
}

TEST(RegistryTest, RemoveBaseSandboxPurgesEntries) {
  FingerprintRegistry registry;
  registry.InsertBaseSandbox(NodeId{0}, SandboxId{100}, {Fp({1, 2, 3})});
  registry.InsertBaseSandbox(NodeId{0}, SandboxId{200}, {Fp({3, 4, 5})});
  registry.RemoveBaseSandbox(SandboxId{100});
  auto hit = registry.FindBasePage(Fp({1, 2, 3}), NodeId{0});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->location.sandbox, SandboxId{200});
  EXPECT_EQ(hit->overlap, 1);
  EXPECT_FALSE(registry.IsBaseSandbox(SandboxId{100}));
  EXPECT_TRUE(registry.IsBaseSandbox(SandboxId{200}));
}

TEST(RegistryTest, PerKeyLocationCap) {
  FingerprintRegistry registry({.max_locations_per_key = 2});
  registry.InsertBaseSandbox(NodeId{0}, SandboxId{100}, {Fp({42})});
  registry.InsertBaseSandbox(NodeId{0}, SandboxId{200}, {Fp({42})});
  registry.InsertBaseSandbox(NodeId{0}, SandboxId{300}, {Fp({42})});
  RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.num_keys, 1u);
  EXPECT_EQ(stats.num_entries, 2u);
}

TEST(RegistryTest, RefcountLifecycle) {
  FingerprintRegistry registry;
  registry.InsertBaseSandbox(NodeId{0}, SandboxId{100}, {Fp({1})});
  EXPECT_EQ(registry.RefCount(SandboxId{100}), 0);
  registry.Ref(SandboxId{100});
  registry.Ref(SandboxId{100});
  EXPECT_EQ(registry.RefCount(SandboxId{100}), 2);
  registry.Unref(SandboxId{100});
  EXPECT_EQ(registry.RefCount(SandboxId{100}), 1);
  registry.Unref(SandboxId{100});
  registry.Unref(SandboxId{100});  // extra unref is clamped
  EXPECT_EQ(registry.RefCount(SandboxId{100}), 0);
  // Refs on unknown sandboxes are ignored.
  registry.Ref(SandboxId{999});
  EXPECT_EQ(registry.RefCount(SandboxId{999}), 0);
}

TEST(RegistryTest, StatsTrackLookups) {
  FingerprintRegistry registry;
  registry.InsertBaseSandbox(NodeId{0}, SandboxId{100}, {Fp({1, 2})});
  (void)registry.FindBasePage(Fp({1, 9}), NodeId{0});
  (void)registry.FindBasePage(Fp({8, 9}), NodeId{0});
  RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.lookups, 2u);
  EXPECT_EQ(stats.key_hits, 1u);
  EXPECT_GT(stats.ApproxMemoryBytes(), 0u);
}

TEST(RegistryTest, MultiplePagesSameSandbox) {
  FingerprintRegistry registry;
  std::vector<PageFingerprint> fps = {Fp({1, 2}), Fp({2, 3}), Fp({3, 4})};
  registry.InsertBaseSandbox(NodeId{1}, SandboxId{100}, fps);
  auto hit = registry.FindBasePage(Fp({3, 4}), NodeId{1});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->location.page_index, PageIndex{2});
}

TEST(RegistryTest, EmptyFingerprintPagesNotInserted) {
  FingerprintRegistry registry;
  registry.InsertBaseSandbox(NodeId{0}, SandboxId{100}, {PageFingerprint{}, Fp({5})});
  RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.num_entries, 1u);
}

}  // namespace
}  // namespace medes
