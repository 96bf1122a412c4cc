// Log-corruption fuzz for the persistent state store (src/store/log_store).
//
// Exhaustively damages a known-good log — truncation at every byte offset,
// a bit flip at every byte, duplicate/stale/gapped sequence numbers, and a
// corrupted checkpoint — and asserts the recovery contract every time:
//
//   1. Prefix-consistent: the recovered state equals the result of applying
//      the longest undamaged in-sequence record prefix, or is empty
//      (fail closed). Recovery never applies a record after the first bad
//      one and never reorders.
//   2. Never a wrong base page: every recovered page's bytes equal what was
//      originally appended for that (sandbox, page) — damaged bytes are
//      dropped, never served.
//   3. Honest `clean` flag: any drop (torn tail, corrupt record, discarded
//      checkpoint) clears it.
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "store/log_store.h"
#include "store/record.h"
#include "store/state_store.h"

namespace medes::store {
namespace {

// ---------------------------------------------------------------------------
// Raw-file helpers (the whole point of this test is damaging the store's
// files behind its back).

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  // medes-lint: allow(direct-filesystem) fuzz harness reads the store's log
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::vector<uint8_t> bytes;
  if (f == nullptr) {
    return bytes;
  }
  std::fseek(f, 0, SEEK_END);
  bytes.resize(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  const size_t read = std::fread(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
  bytes.resize(read);
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  // medes-lint: allow(direct-filesystem) fuzz harness rewrites the store's log
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  if (!bytes.empty()) {  // an empty vector's data() may be null, which fwrite forbids
    std::fwrite(bytes.data(), 1, bytes.size(), f);
  }
  std::fclose(f);
}

void RemovePath(const std::string& path) {
  // medes-lint: allow(direct-filesystem) fuzz harness cleanup
  std::filesystem::remove_all(path);
}

std::string FreshDir(const char* name) {
  // medes-lint: allow(direct-filesystem) fuzz harness scaffolding
  const std::string dir = (std::filesystem::temp_directory_path() / name).string();
  RemovePath(dir);
  // medes-lint: allow(direct-filesystem) fuzz harness scaffolding
  std::filesystem::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// Reference model: the true history and its prefix evaluation.

struct ModelSandbox {
  NodeId node = kInvalidNode;
  size_t num_fingerprints = 0;
  std::map<PageIndex, std::vector<uint8_t>> pages;
};

using ModelState = std::map<SandboxId, ModelSandbox>;

void ApplyToModel(ModelState& state, const Record& rec) {
  switch (rec.type) {
    case RecordType::kInsertSandbox: {
      ModelSandbox& sb = state[rec.sandbox];
      sb.node = rec.node;
      sb.num_fingerprints = rec.fingerprints.size();
      break;
    }
    case RecordType::kRemoveSandbox:
      state.erase(rec.sandbox);
      break;
    case RecordType::kBasePageWrite: {
      ModelSandbox& sb = state[rec.sandbox];
      if (sb.node == kInvalidNode) {
        sb.node = rec.node;
      }
      sb.pages[rec.page_index] = rec.page_bytes;
      break;
    }
  }
}

// Mirrors the recovery replay rules over arbitrary (possibly damaged) bytes:
// decode records front to back, skip stale seqs, stop at the first torn /
// corrupt / gapped record. What this returns is the *only* state a correct
// recovery may produce from those bytes (prefix consistency).
ModelState EvalPrefix(std::span<const uint8_t> bytes, uint64_t first_seq = 1) {
  ModelState state;
  uint64_t expected = first_seq;
  size_t pos = 0;
  while (pos < bytes.size()) {
    const DecodeResult r = DecodeRecord(bytes.subspan(pos));
    if (r.status != DecodeStatus::kOk) {
      break;
    }
    pos += r.consumed;
    if (r.record.seq < expected) {
      continue;  // stale duplicate
    }
    if (r.record.seq > expected) {
      break;  // gap: fail closed at the prefix
    }
    ApplyToModel(state, r.record);
    ++expected;
  }
  return state;
}

void ExpectMatchesModel(const RecoveredState& recovered, const ModelState& model) {
  ASSERT_EQ(recovered.sandboxes.size(), model.size());
  auto it = model.begin();
  for (const RecoveredSandbox& sb : recovered.sandboxes) {
    ASSERT_NE(it, model.end());
    EXPECT_EQ(sb.sandbox, it->first);
    EXPECT_EQ(sb.node, it->second.node);
    EXPECT_EQ(sb.fingerprints.size(), it->second.num_fingerprints);
    ASSERT_EQ(sb.pages.size(), it->second.pages.size());
    auto pit = it->second.pages.begin();
    for (const auto& [page, page_bytes] : sb.pages) {
      EXPECT_EQ(page, pit->first);
      EXPECT_EQ(page_bytes, pit->second);
      ++pit;
    }
    ++it;
  }
}

// Everything the history ever wrote, ignoring removals — a truncated prefix
// may legitimately still contain a sandbox the full history later removed,
// but its bytes must still match what was appended.
ModelState EvalUnion(std::span<const uint8_t> bytes) {
  ModelState state;
  size_t pos = 0;
  while (pos < bytes.size()) {
    const DecodeResult r = DecodeRecord(bytes.subspan(pos));
    if (r.status != DecodeStatus::kOk) {
      break;
    }
    pos += r.consumed;
    if (r.record.type != RecordType::kRemoveSandbox) {
      ApplyToModel(state, r.record);
    }
  }
  return state;
}

// Property 2: every recovered page must byte-match the true history — the
// damaged log may lose writes, but must never serve altered bytes.
void ExpectNoWrongPages(const RecoveredState& recovered, const ModelState& truth) {
  for (const RecoveredSandbox& sb : recovered.sandboxes) {
    const auto it = truth.find(sb.sandbox);
    ASSERT_NE(it, truth.end()) << "recovered a sandbox that never existed";
    for (const auto& [page, page_bytes] : sb.pages) {
      const auto pit = it->second.pages.find(page);
      ASSERT_NE(pit, it->second.pages.end()) << "recovered a page never written";
      EXPECT_EQ(page_bytes, pit->second) << "recovered page bytes differ from history";
    }
  }
}

// ---------------------------------------------------------------------------
// Fixture: a known-good log of 9 records (no checkpoint), small pages so the
// exhaustive sweeps stay fast.

struct Fixture {
  std::string dir;
  std::string log_path;
  std::vector<uint8_t> good_log;
  ModelState truth;  // full-history state
  ModelState union_truth;  // every page ever written (removals ignored)
};

std::vector<PageFingerprint> Fps(int pages) {
  std::vector<PageFingerprint> fps(static_cast<size_t>(pages));
  uint64_t key = 0x42;
  for (PageFingerprint& fp : fps) {
    fp.chunks.push_back(SampledChunk{key++, 0});
    fp.chunks.push_back(SampledChunk{key++, 64});
  }
  return fps;
}

std::vector<uint8_t> Page(uint8_t fill) { return std::vector<uint8_t>(128, fill); }

Fixture BuildFixture(const char* name) {
  Fixture fx;
  fx.dir = FreshDir(name);
  fx.log_path = fx.dir + "/medes.log";
  StoreOptions opts;
  opts.backend = StoreBackend::kPersistent;
  opts.directory = fx.dir;
  opts.checkpoint_every_records = 1u << 30;  // never: keep everything in the log
  {
    LogStore store(opts);
    store.AppendInsertSandbox(NodeId{0}, SandboxId{1}, Fps(2));
    store.AppendBasePage(NodeId{0}, SandboxId{1}, PageIndex{0}, Page(0xa1));
    store.AppendBasePage(NodeId{0}, SandboxId{1}, PageIndex{1}, Page(0xa2));
    store.AppendInsertSandbox(NodeId{1}, SandboxId{2}, Fps(1));
    store.AppendBasePage(NodeId{1}, SandboxId{2}, PageIndex{0}, Page(0xb1));
    store.AppendRemoveSandbox(SandboxId{1});
    store.AppendInsertSandbox(NodeId{2}, SandboxId{3}, Fps(1));
    store.AppendBasePage(NodeId{2}, SandboxId{3}, PageIndex{2}, Page(0xc1));
    store.AppendRemoveSandbox(SandboxId{2});
  }
  fx.good_log = ReadFileBytes(fx.log_path);
  fx.truth = EvalPrefix(fx.good_log);
  fx.union_truth = EvalUnion(fx.good_log);
  return fx;
}

RecoveredState RecoverDir(const std::string& dir) {
  StoreOptions opts;
  opts.backend = StoreBackend::kPersistent;
  opts.directory = dir;
  opts.checkpoint_every_records = 1u << 30;
  LogStore store(opts);
  return store.Recover();
}

// ---------------------------------------------------------------------------

TEST(StoreRecoveryFuzzTest, CleanLogRecoversFully) {
  const Fixture fx = BuildFixture("medes_fuzz_clean");
  const RecoveredState r = RecoverDir(fx.dir);
  EXPECT_TRUE(r.clean);
  EXPECT_EQ(r.log_records, 9u);
  ExpectMatchesModel(r, fx.truth);
  RemovePath(fx.dir);
}

TEST(StoreRecoveryFuzzTest, TruncationAtEveryByteOffset) {
  const Fixture fx = BuildFixture("medes_fuzz_trunc");
  for (size_t len = 0; len < fx.good_log.size(); ++len) {
    const std::vector<uint8_t> damaged(fx.good_log.begin(),
                                       fx.good_log.begin() + static_cast<ptrdiff_t>(len));
    WriteFileBytes(fx.log_path, damaged);
    const RecoveredState r = RecoverDir(fx.dir);
    const ModelState expect = EvalPrefix(damaged);
    ExpectMatchesModel(r, expect);
    ExpectNoWrongPages(r, fx.union_truth);
    // Any byte short of the full log is a damaged history: the flag must say
    // so unless the cut landed exactly on a record boundary.
    if (r.torn_bytes > 0 || r.corrupt_records > 0) {
      EXPECT_FALSE(r.clean) << "len=" << len;
    }
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "at truncation length " << len;
    }
  }
  RemovePath(fx.dir);
}

TEST(StoreRecoveryFuzzTest, BitFlipAtEveryByte) {
  const Fixture fx = BuildFixture("medes_fuzz_flip");
  for (size_t i = 0; i < fx.good_log.size(); ++i) {
    std::vector<uint8_t> damaged = fx.good_log;
    damaged[i] ^= static_cast<uint8_t>(1u << (i % 8));
    WriteFileBytes(fx.log_path, damaged);
    const RecoveredState r = RecoverDir(fx.dir);
    const ModelState expect = EvalPrefix(damaged);
    ExpectMatchesModel(r, expect);
    ExpectNoWrongPages(r, fx.union_truth);
    EXPECT_FALSE(r.clean) << "flip at byte " << i;  // a record was always lost
    if (::testing::Test::HasFatalFailure()) {
      FAIL() << "at flipped byte " << i;
    }
  }
  RemovePath(fx.dir);
}

TEST(StoreRecoveryFuzzTest, DuplicateSeqIsSkippedGapFailsClosed) {
  const std::string dir = FreshDir("medes_fuzz_seq");
  StoreOptions opts;
  opts.backend = StoreBackend::kPersistent;
  opts.directory = dir;
  opts.checkpoint_every_records = 1u << 30;

  // Duplicate: seqs 1,2,2,3 — the stale duplicate is skipped, 3 applies.
  std::vector<uint8_t> log;
  EncodeInsertSandbox(1, NodeId{0}, SandboxId{1}, Fps(1), log);
  EncodeBasePageWrite(2, NodeId{0}, SandboxId{1}, PageIndex{0}, Page(0x11), log);
  EncodeBasePageWrite(2, NodeId{0}, SandboxId{1}, PageIndex{0}, Page(0x99), log);  // stale dup
  EncodeInsertSandbox(3, NodeId{0}, SandboxId{2}, Fps(1), log);
  WriteFileBytes(dir + "/medes.log", log);
  {
    const RecoveredState r = RecoverDir(dir);
    EXPECT_EQ(r.log_records, 3u);
    EXPECT_EQ(r.stale_records, 1u);
    ASSERT_EQ(r.sandboxes.size(), 2u);
    // The duplicate's 0x99 payload must NOT have replaced the applied 0x11.
    EXPECT_EQ(r.sandboxes[0].pages[0].second, Page(0x11));
  }

  // Gap: seqs 1,3 — replay must stop before 3 and report the damage.
  log.clear();
  EncodeInsertSandbox(1, NodeId{0}, SandboxId{1}, Fps(1), log);
  EncodeInsertSandbox(3, NodeId{0}, SandboxId{2}, Fps(1), log);
  WriteFileBytes(dir + "/medes.log", log);
  {
    const RecoveredState r = RecoverDir(dir);
    EXPECT_FALSE(r.clean);
    EXPECT_EQ(r.log_records, 1u);
    ASSERT_EQ(r.sandboxes.size(), 1u);
    EXPECT_EQ(r.sandboxes[0].sandbox, SandboxId{1});
  }
  RemovePath(dir);
}

TEST(StoreRecoveryFuzzTest, CorruptCheckpointFailsClosed) {
  const std::string dir = FreshDir("medes_fuzz_ckpt");
  StoreOptions opts;
  opts.backend = StoreBackend::kPersistent;
  opts.directory = dir;
  opts.checkpoint_every_records = 2;  // force checkpoints
  {
    LogStore store(opts);
    store.AppendInsertSandbox(NodeId{0}, SandboxId{1}, Fps(1));
    store.AppendBasePage(NodeId{0}, SandboxId{1}, PageIndex{0}, Page(0xaa));
    store.AppendInsertSandbox(NodeId{0}, SandboxId{2}, Fps(1));
    ASSERT_GT(store.durability_stats().checkpoints, 0u);
  }
  const std::string ckpt = dir + "/medes.ckpt";
  std::vector<uint8_t> bytes = ReadFileBytes(ckpt);
  ASSERT_FALSE(bytes.empty());
  // Damage a byte in the middle of the checkpoint body.
  bytes[bytes.size() / 2] ^= 0x40;
  WriteFileBytes(ckpt, bytes);

  const RecoveredState r = RecoverDir(dir);
  // All-or-nothing: a half-good checkpoint is unusable, and the log deltas
  // have no base to apply to — recovery is empty and flagged.
  EXPECT_FALSE(r.clean);
  EXPECT_TRUE(r.sandboxes.empty());
  RemovePath(dir);
}

}  // namespace
}  // namespace medes::store
