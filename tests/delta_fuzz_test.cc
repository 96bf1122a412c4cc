// Delta codec robustness corpus: round-trips at every level over adversarial
// content shapes, exhaustive truncation, byte-level corruption, and crafted
// op streams that overflow naive `pos + len` bounds arithmetic. Decoding a
// malformed delta must throw DeltaError — never crash, hang, or read out of
// bounds (the CI sanitizer job runs this binary under ASan/UBSan).
#include "delta/delta.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"

namespace medes {
namespace {

using delta_internal::AppendVarint;

std::vector<uint8_t> RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> out(n);
  for (auto& b : out) {
    b = static_cast<uint8_t>(rng.Next());
  }
  return out;
}

// A target derived from `base` with sparse point edits, an insertion and a
// deletion — the shape real page deltas take.
std::vector<uint8_t> MutatedCopy(const std::vector<uint8_t>& base, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> target = base;
  for (int i = 0; i < 25 && !target.empty(); ++i) {
    target[rng.Below(target.size())] = static_cast<uint8_t>(rng.Next());
  }
  auto insert = RandomBytes(33, seed + 1);
  target.insert(target.begin() + static_cast<ptrdiff_t>(rng.Below(target.size() + 1)),
                insert.begin(), insert.end());
  if (target.size() > 100) {
    size_t cut = rng.Below(target.size() - 50);
    target.erase(target.begin() + static_cast<ptrdiff_t>(cut),
                 target.begin() + static_cast<ptrdiff_t>(cut + 40));
  }
  return target;
}

TEST(DeltaFuzzTest, RoundTripEveryLevel) {
  const std::vector<std::pair<std::vector<uint8_t>, std::vector<uint8_t>>> cases = {
      {RandomBytes(4096, 1), MutatedCopy(RandomBytes(4096, 1), 2)},
      {RandomBytes(4096, 3), RandomBytes(4096, 4)},            // unrelated buffers
      {std::vector<uint8_t>(4096, 0), RandomBytes(4096, 5)},   // zero base
      {RandomBytes(4096, 6), std::vector<uint8_t>(4096, 0)},   // zero target
      {std::vector<uint8_t>{}, RandomBytes(512, 7)},           // empty base
      {RandomBytes(512, 8), std::vector<uint8_t>{}},           // empty target
      {RandomBytes(64, 9), RandomBytes(64, 9)},                // identical
      {std::vector<uint8_t>(4096, 0xAB), std::vector<uint8_t>(5000, 0xAB)},  // repetitive
  };
  for (int level = 0; level <= 9; ++level) {
    DeltaOptions options;
    options.level = level;
    for (size_t c = 0; c < cases.size(); ++c) {
      const auto& [base, target] = cases[c];
      std::vector<uint8_t> delta = DeltaEncode(base, target, options);
      EXPECT_EQ(DeltaDecode(base, delta), target) << "level " << level << " case " << c;
      DeltaStats stats = InspectDelta(delta);
      EXPECT_EQ(stats.add_bytes + stats.copy_bytes, target.size())
          << "level " << level << " case " << c;
      EXPECT_EQ(DeltaTargetLength(delta), target.size());
    }
  }
}

TEST(DeltaFuzzTest, EveryTruncationThrows) {
  auto base = RandomBytes(2048, 20);
  auto target = MutatedCopy(base, 21);
  std::vector<uint8_t> delta = DeltaEncode(base, target);
  ASSERT_EQ(DeltaDecode(base, delta), target);
  for (size_t len = 0; len < delta.size(); ++len) {
    std::span<const uint8_t> cut(delta.data(), len);
    EXPECT_THROW(DeltaDecode(base, cut), DeltaError) << "prefix length " << len;
  }
}

// Flipping any single byte must never escape DeltaError into a crash or an
// out-of-bounds access. A flip in an ADD payload still decodes (to different
// bytes); structural flips must be caught by validation.
TEST(DeltaFuzzTest, ByteCorruptionNeverCrashes) {
  auto base = RandomBytes(2048, 22);
  auto target = MutatedCopy(base, 23);
  std::vector<uint8_t> delta = DeltaEncode(base, target);
  for (size_t pos = 0; pos < delta.size(); ++pos) {
    for (uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
      std::vector<uint8_t> corrupt = delta;
      corrupt[pos] ^= flip;
      try {
        std::vector<uint8_t> out = DeltaDecode(base, corrupt);
        // If it decoded at all, the header's target length was honoured.
        EXPECT_EQ(out.size(), DeltaTargetLength(corrupt));
      } catch (const DeltaError&) {
        // Expected for structural corruption.
      }
      try {
        (void)InspectDelta(corrupt);
      } catch (const DeltaError&) {
      }
    }
  }
}

TEST(DeltaFuzzTest, BitFlipRoundTripSweep) {
  auto base = RandomBytes(1024, 24);
  auto target = MutatedCopy(base, 25);
  std::vector<uint8_t> delta = DeltaEncode(base, target);
  for (size_t bit = 0; bit < delta.size() * 8; bit += 7) {
    std::vector<uint8_t> corrupt = delta;
    corrupt[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    try {
      (void)DeltaDecode(base, corrupt);
    } catch (const DeltaError&) {
    }
  }
}

// Builds a syntactically valid header for `base_len`/`target_len` ready for
// hand-crafted op streams.
std::vector<uint8_t> Header(uint64_t base_len, uint64_t target_len) {
  std::vector<uint8_t> d = {'M', 'D', 'T', '1'};
  AppendVarint(d, base_len);
  AppendVarint(d, target_len);
  return d;
}

// Regression: ADD with a length near 2^64 used to pass the naive
// `pos + len > delta.size()` check by wrapping, then read far out of bounds.
TEST(DeltaFuzzTest, AddLengthOverflowRejected) {
  auto base = RandomBytes(64, 30);
  std::vector<uint8_t> d = Header(base.size(), 16);
  d.push_back(0x00);  // ADD
  AppendVarint(d, std::numeric_limits<uint64_t>::max());
  d.push_back(0xAA);  // one byte of "payload"
  EXPECT_THROW(DeltaDecode(base, d), DeltaError);
  EXPECT_THROW((void)InspectDelta(d), DeltaError);
}

TEST(DeltaFuzzTest, AddLengthWrapToZeroRejected) {
  auto base = RandomBytes(64, 31);
  std::vector<uint8_t> d = Header(base.size(), 4);
  d.push_back(0x00);  // ADD
  // len chosen so that pos + len == 2^64 exactly (sum wraps to 0, which is
  // <= delta.size() under the naive check).
  size_t pos_after_len = d.size() + 10;  // 10-byte varint follows
  AppendVarint(d, 0 - static_cast<uint64_t>(pos_after_len));
  EXPECT_THROW(DeltaDecode(base, d), DeltaError);
  EXPECT_THROW((void)InspectDelta(d), DeltaError);
}

// Regression: COPY with off + len wrapping past 2^64 used to slip through
// `off + len > base.size()` and copy from wild addresses.
TEST(DeltaFuzzTest, CopyRangeOverflowRejected) {
  auto base = RandomBytes(64, 32);
  std::vector<uint8_t> d = Header(base.size(), 8);
  d.push_back(0x01);  // COPY
  AppendVarint(d, 32);                                     // valid offset
  AppendVarint(d, std::numeric_limits<uint64_t>::max());   // len wraps off+len
  EXPECT_THROW(DeltaDecode(base, d), DeltaError);
}

TEST(DeltaFuzzTest, CopyOffsetPastBaseRejected) {
  auto base = RandomBytes(64, 33);
  std::vector<uint8_t> d = Header(base.size(), 8);
  d.push_back(0x01);  // COPY
  AppendVarint(d, std::numeric_limits<uint64_t>::max() - 3);  // off >> base
  AppendVarint(d, 8);
  EXPECT_THROW(DeltaDecode(base, d), DeltaError);
}

// Ops that individually fit but overshoot the declared target length must be
// rejected during validation — before any output is materialised — even if
// their total wraps 2^64.
TEST(DeltaFuzzTest, TargetLengthOverflowRejected) {
  auto base = RandomBytes(64, 34);
  std::vector<uint8_t> d = Header(base.size(), 8);
  for (int i = 0; i < 4; ++i) {
    d.push_back(0x01);  // COPY of 64 bytes each: 256 total vs target_len 8
    AppendVarint(d, 0);
    AppendVarint(d, 64);
  }
  EXPECT_THROW(DeltaDecode(base, d), DeltaError);
}

TEST(DeltaFuzzTest, DecodeIntoReusesBuffer) {
  auto base = RandomBytes(1024, 35);
  auto target = MutatedCopy(base, 36);
  std::vector<uint8_t> delta = DeltaEncode(base, target);
  std::vector<uint8_t> out(9999, 0xCD);  // stale oversized contents
  DeltaDecodeInto(base, delta, out);
  EXPECT_EQ(out, target);
  // A failed decode must not have resized the buffer (validation precedes
  // any write to `out`).
  std::vector<uint8_t> bad = Header(base.size(), 4);
  bad.push_back(0x7F);  // unknown opcode
  out.assign(3, 0xEE);
  EXPECT_THROW(DeltaDecodeInto(base, bad, out), DeltaError);
  EXPECT_EQ(out, (std::vector<uint8_t>(3, 0xEE)));
}

// Page-shaped target: `base` with `words` random 8-byte words overwritten.
std::vector<uint8_t> WordMutated(const std::vector<uint8_t>& base, int words, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> target = base;
  for (int i = 0; i < words && target.size() >= 8; ++i) {
    uint64_t v = rng.Next();
    std::memcpy(target.data() + rng.Below(target.size() / 8) * 8, &v, 8);
  }
  return target;
}

// Mostly-zero page with a few non-zero words: many equal seeds share one
// bucket, the shape of sparsely written heap pages.
std::vector<uint8_t> SparsePage(size_t n, uint64_t seed) {
  return WordMutated(std::vector<uint8_t>(n, 0), 24, seed);
}

// `base` with `shift` fresh bytes in front and its tail cut to keep the size.
std::vector<uint8_t> Shifted(const std::vector<uint8_t>& base, size_t shift, uint64_t seed) {
  std::vector<uint8_t> target = RandomBytes(shift, seed);
  target.insert(target.end(), base.begin(), base.end() - static_cast<ptrdiff_t>(shift));
  return target;
}

// Patch-identity oracle: one digest over every patch of a seeded corpus, at
// every level and across seed lengths on both sides of the 8- and 16-byte
// word boundaries. The digest was produced by the encoder before its seed
// prefilter existed; encoder speedups must leave every patch byte as it was.
TEST(DeltaFuzzTest, PatchBytesMatchCommittedDigest) {
  const auto page = RandomBytes(4096, 50);
  const auto sparse = SparsePage(4096, 51);
  const std::vector<std::pair<std::vector<uint8_t>, std::vector<uint8_t>>> cases = {
      {page, page},                                      // identical
      {page, WordMutated(page, 4, 52)},                  // few words mutated
      {page, WordMutated(page, 64, 53)},                 // many words mutated
      {page, Shifted(page, 3, 54)},                      // shifted, unaligned
      {page, Shifted(page, 100, 55)},                    // shifted further
      {page, MutatedCopy(page, 56)},                     // edits + insert + delete
      {page, RandomBytes(4096, 57)},                     // unrelated
      {sparse, WordMutated(sparse, 6, 58)},              // low-entropy page
      {std::vector<uint8_t>(page.begin(), page.begin() + 24), page},  // short base
      {page, std::vector<uint8_t>(page.begin() + 8, page.begin() + 40)},  // short target
  };
  uint64_t digest = 0xcbf29ce484222325ull;
  size_t patches = 0;
  for (int level = 0; level <= 9; ++level) {
    for (size_t seed_length : {4, 5, 7, 8, 9, 12, 16, 17, 31, 32}) {
      DeltaOptions options;
      options.level = level;
      options.seed_length = seed_length;
      for (const auto& [base, target] : cases) {
        std::vector<uint8_t> delta = DeltaEncode(base, target, options);
        ASSERT_EQ(DeltaDecode(base, delta), target)
            << "level " << level << " seed_length " << seed_length;
        std::vector<uint8_t> len;
        AppendVarint(len, delta.size());
        digest = Fnv1a64(delta, Fnv1a64(len, digest));
        ++patches;
      }
    }
  }
  EXPECT_EQ(patches, 1000u);
  EXPECT_EQ(digest, 0x81e647163e7ce6acull) << std::hex << "got 0x" << digest;
}

TEST(DeltaFuzzTest, EncodeIntoWithSharedScratchMatchesEncode) {
  DeltaScratch scratch;
  std::vector<uint8_t> buf;
  for (uint64_t seed = 40; seed < 48; ++seed) {
    auto base = RandomBytes(2048, seed);
    auto target = MutatedCopy(base, seed + 100);
    DeltaEncodeInto(base, target, {}, buf, &scratch);
    EXPECT_EQ(buf, DeltaEncode(base, target)) << "seed " << seed;
    EXPECT_EQ(DeltaDecode(base, buf), target) << "seed " << seed;
  }
}

}  // namespace
}  // namespace medes
