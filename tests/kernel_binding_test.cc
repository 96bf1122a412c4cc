// The kernel dispatch tables bind on the first dispatched call, with no help
// from the caller: a Medes platform run that never asks for a tier still runs
// the best tier the host has, or scalar when MEDES_FORCE_SCALAR pins it.
// This binary holds a single test so that, under ctest or run directly, the
// process starts with nothing bound.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <optional>

#include "common/kernels/cpu_features.h"
#include "platform/platform.h"

namespace medes {
namespace {

using kernels::Tier;

// The documented MEDES_FORCE_SCALAR rule (cpu_features.h): the build knob,
// or the environment variable set to anything but "", "0", "off", "false".
bool ScalarForced() {
#if defined(MEDES_FORCE_SCALAR)
  return true;
#else
  const char* v = std::getenv("MEDES_FORCE_SCALAR");
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0 &&
         std::strcmp(v, "off") != 0 && std::strcmp(v, "false") != 0;
#endif
}

TEST(KernelBindingTest, PlatformRunBindsTheHostTier) {
  EXPECT_FALSE(kernels::BoundTier().has_value()) << "bound before any kernel ran";

  PlatformOptions opts = MakePlatformOptions(PolicyKind::kMedes);
  opts.cluster.num_nodes = 4;
  opts.cluster.node_memory_mb = 1024;
  opts.cluster.bytes_per_mb = 4096;
  opts.medes.idle_period = 30 * kSecond;
  opts.medes.alpha = 8.0;
  TraceOptions topts;
  topts.duration = 8 * kMinute;
  topts.rate_scale = 2.0;
  ServerlessPlatform platform(opts);
  RunMetrics m = platform.Run(GenerateTrace(DefaultAzurePatterns(), topts));
  ASSERT_GT(m.dedup_ops, 0u) << "the run must fingerprint and encode pages";

  // Reading the bound tier must not bind it.
  std::optional<Tier> bound = kernels::BoundTier();
  ASSERT_TRUE(bound.has_value());
  EXPECT_EQ(*bound, ScalarForced() ? Tier::kScalar : kernels::MaxSupportedTier())
      << "bound " << kernels::TierName(*bound);
}

}  // namespace
}  // namespace medes
