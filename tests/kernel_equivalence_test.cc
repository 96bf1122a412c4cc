// Bit-identical equivalence of every dispatched kernel variant against the
// scalar reference (the contract in common/kernels/cpu_features.h): same
// digests, same rolling-hash words, same match lengths, same delta bytes at
// every tier the machine can bind. Also exercises the MEDES_FORCE_SCALAR
// environment knob via ResetTierFromEnvironment.
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/kernels/cpu_features.h"
#include "common/kernels/memops.h"
#include "common/kernels/rolling_kernels.h"
#include "common/kernels/sha1_kernels.h"
#include "common/rng.h"
#include "common/sha1.h"
#include "delta/delta.h"

namespace medes {
namespace {

using kernels::Tier;

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return out;
}

// Flat storage for n five-word SHA-1 states, viewable as the
// `uint32_t (*)[5]` the batch kernels take.
struct StateArray {
  explicit StateArray(size_t n) : words(n * 5, 0) {}
  uint32_t (*data())[5] { return reinterpret_cast<uint32_t(*)[5]>(words.data()); }
  uint32_t at(size_t i, int s) const { return words[i * 5 + static_cast<size_t>(s)]; }
  std::vector<uint32_t> words;
};

std::vector<Tier> BindableTiers() {
  std::vector<Tier> tiers;
  for (Tier t : {Tier::kScalar, Tier::kSwar, Tier::kSse42, Tier::kAvx2}) {
    if (t <= kernels::MaxSupportedTier()) {
      tiers.push_back(t);
    }
  }
  return tiers;
}

// Restores the environment-derived tier after each test so the forced tier
// never leaks into other test binaries' expectations.
class KernelEquivalenceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    unsetenv("MEDES_FORCE_SCALAR");
    kernels::ResetTierFromEnvironment();
  }
};

TEST_F(KernelEquivalenceTest, ForceTierClampsToSupported) {
  Tier bound = kernels::ForceTier(Tier::kAvx2);
  EXPECT_LE(bound, kernels::MaxSupportedTier());
  EXPECT_EQ(bound, kernels::ActiveTier());
  EXPECT_EQ(kernels::ForceTier(Tier::kScalar), Tier::kScalar);
}

TEST_F(KernelEquivalenceTest, ForceScalarEnvironmentKnob) {
  setenv("MEDES_FORCE_SCALAR", "1", 1);
  EXPECT_EQ(kernels::ResetTierFromEnvironment(), Tier::kScalar);
  EXPECT_EQ(kernels::ActiveTier(), Tier::kScalar);

  // "0" / "off" / "false" mean *not* forced by the environment; the build
  // knob still pins scalar.
#if defined(MEDES_FORCE_SCALAR)
  const Tier unforced = Tier::kScalar;
#else
  const Tier unforced = kernels::MaxSupportedTier();
#endif
  for (const char* off : {"0", "off", "false", ""}) {
    setenv("MEDES_FORCE_SCALAR", off, 1);
    EXPECT_EQ(kernels::ResetTierFromEnvironment(), unforced) << off;
  }
  unsetenv("MEDES_FORCE_SCALAR");
  EXPECT_EQ(kernels::ResetTierFromEnvironment(), unforced);
}

TEST_F(KernelEquivalenceTest, Sha1SingleBlockAllTiers) {
  auto data = RandomBytes(64 * 37, 101);
  for (Tier tier : BindableTiers()) {
    kernels::ForceTier(tier);
    for (size_t i = 0; i < 37; ++i) {
      const uint8_t* block = data.data() + i * 64;
      uint32_t ref[5];
      uint32_t got[5];
      for (int s = 0; s < 5; ++s) {
        ref[s] = got[s] = kernels::kSha1Init[s];
      }
      kernels::Sha1CompressScalar(ref, block);
      kernels::Sha1Compress(got, block);
      for (int s = 0; s < 5; ++s) {
        ASSERT_EQ(got[s], ref[s]) << kernels::TierName(tier) << " block " << i;
      }
    }
  }
}

TEST_F(KernelEquivalenceTest, Sha1Chunk64AllTiers) {
  auto data = RandomBytes(64 * 64, 102);
  for (Tier tier : BindableTiers()) {
    kernels::ForceTier(tier);
    for (size_t i = 0; i < 64; ++i) {
      uint32_t ref[5];
      uint32_t got[5];
      kernels::Sha1Chunk64Scalar(data.data() + i * 64, ref);
      kernels::Sha1Chunk64(data.data() + i * 64, got);
      for (int s = 0; s < 5; ++s) {
        ASSERT_EQ(got[s], ref[s]) << kernels::TierName(tier) << " chunk " << i;
      }
    }
  }
}

// Batch sizes straddling every lane-group boundary of the 4-way SWAR and
// 8-way AVX2 variants, including the empty batch.
TEST_F(KernelEquivalenceTest, Sha1Chunk64BatchAllTiers) {
  constexpr size_t kMax = 21;
  auto data = RandomBytes(64 * kMax, 103);
  std::vector<const uint8_t*> ptrs(kMax);
  for (size_t i = 0; i < kMax; ++i) {
    ptrs[i] = data.data() + i * 64;
  }
  StateArray ref(kMax);
  kernels::Sha1Chunk64BatchScalar(ptrs.data(), kMax, ref.data());
  for (Tier tier : BindableTiers()) {
    kernels::ForceTier(tier);
    for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{5}, size_t{7}, size_t{8},
                     size_t{9}, size_t{16}, size_t{17}, kMax}) {
      StateArray got(n + 1);
      kernels::Sha1Chunk64Batch(ptrs.data(), n, got.data());
      for (size_t i = 0; i < n; ++i) {
        for (int s = 0; s < 5; ++s) {
          ASSERT_EQ(got.at(i, s), ref.at(i, s))
              << kernels::TierName(tier) << " n=" << n << " chunk " << i;
        }
      }
    }
  }
}

// The named variants, called directly where the hardware allows, must agree
// with scalar no matter what tier is bound.
TEST_F(KernelEquivalenceTest, Sha1NamedVariantsDirect) {
  constexpr size_t kN = 13;
  auto data = RandomBytes(64 * kN, 104);
  std::vector<const uint8_t*> ptrs(kN);
  for (size_t i = 0; i < kN; ++i) {
    ptrs[i] = data.data() + i * 64;
  }
  StateArray ref(kN);
  kernels::Sha1Chunk64BatchScalar(ptrs.data(), kN, ref.data());

  auto check = [&](const char* name, void (*batch)(const uint8_t* const*, size_t,
                                                   uint32_t (*)[5])) {
    StateArray got(kN);
    batch(ptrs.data(), kN, got.data());
    for (size_t i = 0; i < kN; ++i) {
      for (int s = 0; s < 5; ++s) {
        ASSERT_EQ(got.at(i, s), ref.at(i, s)) << name << " chunk " << i;
      }
    }
  };
  check("swar", kernels::Sha1Chunk64BatchSwar);
  if (kernels::DetectCpuFeatures().avx2 && kernels::Avx2Compiled()) {
    check("avx2", kernels::Sha1Chunk64BatchAvx2);
  }
  if (kernels::DetectCpuFeatures().sha_ni && kernels::Sha1ShaNiCompiled()) {
    check("sha-ni", kernels::Sha1Chunk64BatchShaNi);
  }
}

TEST_F(KernelEquivalenceTest, Sha1PublicApiAcrossTiers) {
  auto data = RandomBytes(4096, 105);
  kernels::ForceTier(Tier::kScalar);
  Sha1Digest ref_full = Sha1::Hash(data);
  Sha1Digest ref_chunk = Sha1::HashChunk64(data.data());
  for (Tier tier : BindableTiers()) {
    kernels::ForceTier(tier);
    EXPECT_EQ(Sha1::Hash(data), ref_full) << kernels::TierName(tier);
    EXPECT_EQ(Sha1::HashChunk64(data.data()), ref_chunk) << kernels::TierName(tier);
    // The fast path equals the streaming path for 64-byte input.
    EXPECT_EQ(Sha1::HashChunk64(data.data()),
              Sha1::Hash(std::span<const uint8_t>(data).first(64)));
  }
}

TEST_F(KernelEquivalenceTest, RollingBulkAllTiers) {
  for (size_t window : {size_t{1}, size_t{3}, size_t{8}, size_t{16}, size_t{63}, size_t{64}}) {
    for (size_t n : {window, window + 1, window + 7, window + 100, size_t{4096}}) {
      if (n < window) {
        continue;
      }
      auto data = RandomBytes(n, 200 + window + n);
      uint64_t pow_w1 = 1;
      for (size_t i = 1; i < window; ++i) {
        pow_w1 *= kernels::kRollingBase;
      }
      const size_t count = n - window + 1;
      std::vector<uint64_t> ref(count);
      kernels::RollingBulkScalar(data.data(), n, window, pow_w1, ref.data());
      std::vector<uint64_t> unrolled(count);
      kernels::RollingBulkUnrolled(data.data(), n, window, pow_w1, unrolled.data());
      ASSERT_EQ(unrolled, ref) << "window " << window << " n " << n;
      for (Tier tier : BindableTiers()) {
        kernels::ForceTier(tier);
        std::vector<uint64_t> got(count);
        kernels::RollingBulk(data.data(), n, window, pow_w1, got.data());
        ASSERT_EQ(got, ref) << kernels::TierName(tier) << " window " << window << " n " << n;
      }
    }
  }
}

// Plants a first-difference at every offset in [0, max] — including word and
// vector boundary straddles — and checks all variants agree with scalar.
TEST_F(KernelEquivalenceTest, MatchForwardAllTiers) {
  constexpr size_t kMax = 97;
  auto a = RandomBytes(kMax, 300);
  for (size_t diff = 0; diff <= kMax; ++diff) {
    std::vector<uint8_t> b = a;
    if (diff < kMax) {
      b[diff] ^= 0x40;
    }
    size_t ref = kernels::MatchForwardScalar(a.data(), b.data(), kMax);
    ASSERT_EQ(ref, diff);
    EXPECT_EQ(kernels::MatchForwardSwar(a.data(), b.data(), kMax), ref);
    if (kernels::DetectCpuFeatures().avx2 && kernels::Avx2Compiled()) {
      EXPECT_EQ(kernels::MatchForwardAvx2(a.data(), b.data(), kMax), ref);
    }
    for (Tier tier : BindableTiers()) {
      kernels::ForceTier(tier);
      EXPECT_EQ(kernels::MatchForward(a.data(), b.data(), kMax), ref)
          << kernels::TierName(tier) << " diff at " << diff;
    }
  }
  EXPECT_EQ(kernels::MatchForwardSwar(a.data(), a.data(), 0), 0u);
}

TEST_F(KernelEquivalenceTest, MatchBackwardAllTiers) {
  constexpr size_t kMax = 97;
  auto a = RandomBytes(kMax, 301);
  for (size_t diff = 0; diff <= kMax; ++diff) {
    // diff = number of matching bytes at the tail.
    std::vector<uint8_t> b = a;
    if (diff < kMax) {
      b[kMax - diff - 1] ^= 0x40;
    }
    const uint8_t* a_end = a.data() + kMax;
    const uint8_t* b_end = b.data() + kMax;
    size_t ref = kernels::MatchBackwardScalar(a_end, b_end, kMax);
    ASSERT_EQ(ref, diff);
    EXPECT_EQ(kernels::MatchBackwardSwar(a_end, b_end, kMax), ref);
    if (kernels::DetectCpuFeatures().avx2 && kernels::Avx2Compiled()) {
      EXPECT_EQ(kernels::MatchBackwardAvx2(a_end, b_end, kMax), ref);
    }
    for (Tier tier : BindableTiers()) {
      kernels::ForceTier(tier);
      EXPECT_EQ(kernels::MatchBackward(a_end, b_end, kMax), ref)
          << kernels::TierName(tier) << " tail match " << diff;
    }
  }
  EXPECT_EQ(kernels::MatchBackwardSwar(a.data(), a.data(), 0), 0u);
}

TEST_F(KernelEquivalenceTest, MemEqualAllTiers) {
  for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{15}, size_t{16},
                     size_t{31}, size_t{32}, size_t{33}, size_t{64}, size_t{100}}) {
    auto a = RandomBytes(len + 1, 400 + len);
    std::vector<uint8_t> b(a.begin(), a.begin() + static_cast<ptrdiff_t>(len));
    // Equal case, then a flip at every position.
    for (size_t flip = 0; flip <= len; ++flip) {
      std::vector<uint8_t> c = b;
      bool expect_equal = true;
      if (flip < len) {
        c[flip] ^= 0x01;
        expect_equal = false;
      }
      EXPECT_EQ(kernels::MemEqualScalar(a.data(), c.data(), len), expect_equal);
      EXPECT_EQ(kernels::MemEqualSwar(a.data(), c.data(), len), expect_equal);
      if (kernels::DetectCpuFeatures().avx2 && kernels::Avx2Compiled()) {
        EXPECT_EQ(kernels::MemEqualAvx2(a.data(), c.data(), len), expect_equal);
      }
      for (Tier tier : BindableTiers()) {
        kernels::ForceTier(tier);
        EXPECT_EQ(kernels::MemEqual(a.data(), c.data(), len), expect_equal)
            << kernels::TierName(tier) << " len " << len << " flip " << flip;
      }
    }
  }
}

// Tier selection must never change the *bytes* of an encoded delta or a
// decoded page, and fingerprints must be tier-invariant (they feed the
// cross-node registry, where mixed-hardware clusters must agree).
TEST_F(KernelEquivalenceTest, DeltaBytesIdenticalAcrossTiers) {
  auto base = RandomBytes(4096, 500);
  std::vector<uint8_t> target = base;
  Rng rng(501);
  for (int i = 0; i < 40; ++i) {
    target[rng.Below(target.size())] = static_cast<uint8_t>(rng.Next());
  }

  kernels::ForceTier(Tier::kScalar);
  std::vector<uint8_t> ref_delta = DeltaEncode(base, target);
  std::vector<uint8_t> ref_out = DeltaDecode(base, ref_delta);
  ASSERT_EQ(ref_out, target);

  for (Tier tier : BindableTiers()) {
    kernels::ForceTier(tier);
    EXPECT_EQ(DeltaEncode(base, target), ref_delta) << kernels::TierName(tier);
    EXPECT_EQ(DeltaDecode(base, ref_delta), target) << kernels::TierName(tier);
  }
}

#if defined(__x86_64__) || defined(__i386__)

// XINUSE (XGETBV with ECX=1) bit 2 is set while the upper halves of the YMM
// registers are not in their initial, all-zero state. Readable only when
// CPUID.(EAX=0Dh,ECX=1):EAX[2] is set; VZEROUPPER needs AVX enabled by the OS.
bool UpperYmmStateReadable() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0 || (ecx & bit_OSXSAVE) == 0 ||
      (ecx & bit_AVX) == 0 || __get_cpuid_max(0, nullptr) < 0xD) {
    return false;
  }
  __cpuid_count(0xD, 1, eax, ebx, ecx, edx);
  return (eax & (1u << 2)) != 0;
}

bool UpperYmmInUse() {
  uint32_t eax = 0, edx = 0;
  __asm__ volatile("xgetbv" : "=a"(eax), "=d"(edx) : "c"(1));
  return (eax & (1u << 2)) != 0;
}

// Runs `call` from a clean upper-YMM state; true if it returned dirty.
template <typename F>
bool LeavesUpperYmmDirty(F&& call) {
  __asm__ volatile("vzeroupper" ::: "memory");
  call();
  return UpperYmmInUse();
}

// The kernels with vector variants, either dispatched or one named tier.
struct VectorKernels {
  const char* name;
  size_t (*match_forward)(const uint8_t*, const uint8_t*, size_t);
  size_t (*match_backward)(const uint8_t*, const uint8_t*, size_t);
  bool (*mem_equal)(const uint8_t*, const uint8_t*, size_t);
  void (*chunk64_batch)(const uint8_t* const*, size_t, uint32_t (*)[5]);
};

void ExpectUpperYmmClean(const VectorKernels& k) {
  constexpr size_t kMaxLen = 300;
  auto a = RandomBytes(kMaxLen, 600);
  std::vector<uint8_t> b = a;
  volatile size_t sink = 0;
  size_t dirty_fwd = 0, dirty_back = 0, dirty_eq = 0;
  for (size_t len = 0; len <= kMaxLen; ++len) {
    for (bool equal : {true, false}) {
      // Unequal inputs differ in the last byte each scan reaches, so every
      // full-width block matches before the mismatch.
      const size_t fwd_diff = len - 1, back_diff = kMaxLen - len;
      if (!equal && len > 0) {
        b[fwd_diff] ^= 1;
      }
      dirty_fwd += LeavesUpperYmmDirty([&] { sink = k.match_forward(a.data(), b.data(), len); });
      dirty_eq += LeavesUpperYmmDirty([&] { sink = k.mem_equal(a.data(), b.data(), len); });
      if (!equal && len > 0) {
        b[fwd_diff] ^= 1;
        b[back_diff] ^= 1;
      }
      dirty_back += LeavesUpperYmmDirty([&] {
        sink = k.match_backward(a.data() + kMaxLen, b.data() + kMaxLen, len);
      });
      if (!equal && len > 0) {
        b[back_diff] ^= 1;
      }
    }
  }
  EXPECT_EQ(dirty_fwd, 0u) << k.name << " MatchForward";
  EXPECT_EQ(dirty_back, 0u) << k.name << " MatchBackward";
  EXPECT_EQ(dirty_eq, 0u) << k.name << " MemEqual";

  constexpr size_t kMaxChunks = 17;
  auto chunks = RandomBytes(64 * kMaxChunks, 601);
  std::vector<const uint8_t*> ptrs(kMaxChunks);
  for (size_t i = 0; i < kMaxChunks; ++i) {
    ptrs[i] = chunks.data() + i * 64;
  }
  StateArray states(kMaxChunks);
  size_t dirty_batch = 0;
  for (size_t n = 1; n <= kMaxChunks; ++n) {
    dirty_batch += LeavesUpperYmmDirty([&] { k.chunk64_batch(ptrs.data(), n, states.data()); });
  }
  EXPECT_EQ(dirty_batch, 0u) << k.name << " Sha1Chunk64Batch";
  (void)sink;
}

#endif  // x86

// Every kernel returns with the upper YMM state clean, at every tier and for
// the AVX2 variants called directly (a SHA-NI host never binds the AVX2
// batch). A dirty upper state slows every later legacy-SSE instruction,
// which is most of the simulator's double arithmetic.
TEST_F(KernelEquivalenceTest, KernelsLeaveUpperYmmStateClean) {
#if defined(__x86_64__) || defined(__i386__)
  if (!UpperYmmStateReadable()) {
    GTEST_SKIP() << "XGETBV(ECX=1) not supported";
  }
  for (Tier tier : BindableTiers()) {
    kernels::ForceTier(tier);
    ExpectUpperYmmClean({kernels::TierName(tier), kernels::MatchForward, kernels::MatchBackward,
                         kernels::MemEqual, kernels::Sha1Chunk64Batch});

    auto data = RandomBytes(4096, 602);
    std::vector<uint64_t> hashes(data.size());
    size_t dirty_rolling = 0;
    for (size_t n : {size_t{48}, size_t{49}, size_t{300}, size_t{4096}}) {
      dirty_rolling += LeavesUpperYmmDirty([&] {
        kernels::RollingBulk(data.data(), n, 48, kernels::kRollingBase, hashes.data());
      });
    }
    EXPECT_EQ(dirty_rolling, 0u) << kernels::TierName(tier) << " RollingBulk";

    uint32_t state[5] = {};
    size_t dirty_compress = 0;
    for (size_t i = 0; i < 4; ++i) {
      dirty_compress +=
          LeavesUpperYmmDirty([&] { kernels::Sha1Compress(state, data.data() + 64 * i); });
    }
    EXPECT_EQ(dirty_compress, 0u) << kernels::TierName(tier) << " Sha1Compress";
  }
  if (kernels::DetectCpuFeatures().avx2 && kernels::Avx2Compiled()) {
    ExpectUpperYmmClean({"avx2 (direct)", kernels::MatchForwardAvx2, kernels::MatchBackwardAvx2,
                         kernels::MemEqualAvx2, kernels::Sha1Chunk64BatchAvx2});
  }
#else
  GTEST_SKIP() << "x86-only state check";
#endif
}

}  // namespace
}  // namespace medes
