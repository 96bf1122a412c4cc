#include "delta/delta.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "common/hash.h"
#include "common/kernels/memops.h"

namespace medes {
namespace delta_internal {

void AppendVarint(std::vector<uint8_t>& out, uint64_t value) {
  while (value >= 0x80) {
    out.push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out.push_back(static_cast<uint8_t>(value));
}

uint64_t ReadVarint(std::span<const uint8_t> data, size_t& pos) {
  uint64_t value = 0;
  int shift = 0;
  while (true) {
    if (pos >= data.size() || shift > 63) {
      throw DeltaError("varint out of range");
    }
    uint8_t byte = data[pos++];
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      return value;
    }
    shift += 7;
  }
}

}  // namespace delta_internal

namespace {

using delta_internal::AppendVarint;
using delta_internal::ReadVarint;

constexpr uint8_t kMagic[4] = {'M', 'D', 'T', '1'};
constexpr uint8_t kOpAdd = 0x00;
constexpr uint8_t kOpCopy = 0x01;

// Seed-index over the base buffer: maps hashed seeds to base offsets.
// Open-addressed, power-of-two sized, each slot holding up to `depth` offsets
// chained via per-slot arrays would complicate things; instead we use a
// bucketed table with a small fixed depth (newest offsets win). The backing
// store is borrowed from the caller (DeltaScratch) so repeated encodes reuse
// its capacity.
//
// In front of the table sits a prefilter: one bit per indexed seed, keyed by
// a cheap multiply hash of the seed's bytes. Most unmatched target positions
// find their bit clear and skip the byte-wise FNV-1a hash and the bucket
// probe. Equal seeds set equal bits, so the filter has no false negatives,
// and every candidate still has to pass MemEqual: patches are byte-identical
// to an encode without it.
class SeedIndex {
 public:
  SeedIndex(std::span<const uint8_t> base, size_t seed_len, size_t stride, size_t depth,
            std::vector<size_t>& slots)
      : base_(base), seed_len_(seed_len), depth_(depth), slots_(slots) {
    if (base.size() < seed_len) {
      slots_.clear();
      return;
    }
    size_t positions = (base.size() - seed_len) / stride + 1;
    size_t want = positions * depth * 2;
    size_t cap = 64;
    while (cap < want) {
      cap <<= 1;
    }
    mask_ = cap - 1;
    slots_.assign(cap * depth_, kEmpty);
    for (size_t i = 0; i + seed_len <= base.size(); i += stride) {
      const uint8_t* seed = base.data() + i;
      size_t bit = FilterBit(seed);
      filter_[bit / 64] |= uint64_t{1} << (bit % 64);
      Insert(HashSeed(seed), i);
    }
  }

  static constexpr size_t npos = static_cast<size_t>(-1);

  struct Match {
    size_t base_off = npos;  // npos when no candidate matches
    size_t forward = 0;      // bytes matching forward from base_off / t_off
  };

  // Finds the base offset whose seed matches the one at `t_off`, preferring
  // the longest forward extension, and returns that extension's length.
  Match FindBest(std::span<const uint8_t> target, size_t t_off) const {
    Match best;
    if (slots_.empty() || t_off + seed_len_ > target.size()) {
      return best;
    }
    const uint8_t* seed = target.data() + t_off;
    size_t bit = FilterBit(seed);
    if (((filter_[bit / 64] >> (bit % 64)) & 1) == 0) {
      return best;
    }
    size_t bucket = (HashSeed(seed) & mask_) * depth_;
    for (size_t d = 0; d < depth_; ++d) {
      size_t cand = slots_[bucket + d];
      if (cand == kEmpty) {
        break;
      }
      if (!kernels::MemEqual(base_.data() + cand, seed, seed_len_)) {
        continue;
      }
      size_t max = std::min(base_.size() - cand, target.size() - t_off);
      size_t len = kernels::MatchForward(base_.data() + cand, seed, max);
      if (len > best.forward) {
        best = {cand, len};
      }
    }
    return best;
  }

 private:
  static constexpr size_t kEmpty = static_cast<size_t>(-1);
  static constexpr size_t kFilterBits = 8192;

  uint64_t HashSeed(const uint8_t* p) const {
    return MixBits(Fnv1a64({p, seed_len_}));
  }

  // Filter key: two loads covering up to the seed's first 16 bytes (they
  // overlap for seeds under 16), never a byte past the seed's end.
  size_t FilterBit(const uint8_t* p) const {
    uint64_t lo = 0;
    uint64_t hi = 0;
    if (seed_len_ >= 8) {
      std::memcpy(&lo, p, 8);
      std::memcpy(&hi, p + std::min<size_t>(seed_len_, 16) - 8, 8);
    } else {
      uint32_t lo32 = 0;
      uint32_t hi32 = 0;
      std::memcpy(&lo32, p, 4);
      std::memcpy(&hi32, p + seed_len_ - 4, 4);
      lo = lo32;
      hi = hi32;
    }
    uint64_t h = lo * 0x9e3779b97f4a7c15ull ^ hi * 0xc2b2ae3d27d4eb4full;
    return static_cast<size_t>(h >> 51);  // top 13 bits: [0, kFilterBits)
  }

  void Insert(uint64_t h, size_t offset) {
    size_t bucket = (h & mask_) * depth_;
    // Shift older entries down; newest first.
    for (size_t d = depth_ - 1; d > 0; --d) {
      slots_[bucket + d] = slots_[bucket + d - 1];
    }
    slots_[bucket] = offset;
  }

  std::span<const uint8_t> base_;
  size_t seed_len_;
  size_t depth_;
  size_t mask_ = 0;
  std::vector<size_t>& slots_;
  std::array<uint64_t, kFilterBits / 64> filter_{};
};

void EmitAdd(std::vector<uint8_t>& out, std::span<const uint8_t> literal) {
  if (literal.empty()) {
    return;
  }
  out.push_back(kOpAdd);
  AppendVarint(out, literal.size());
  out.insert(out.end(), literal.begin(), literal.end());
}

void EmitCopy(std::vector<uint8_t>& out, size_t base_off, size_t len) {
  out.push_back(kOpCopy);
  AppendVarint(out, base_off);
  AppendVarint(out, len);
}

// Parses and bounds-checks the delta header. Returns the op-stream start.
size_t CheckHeader(std::span<const uint8_t> delta, uint64_t* base_len, uint64_t* target_len) {
  if (delta.size() < 4 || std::memcmp(delta.data(), kMagic, 4) != 0) {
    throw DeltaError("bad delta magic");
  }
  size_t pos = 4;
  *base_len = ReadVarint(delta, pos);
  *target_len = ReadVarint(delta, pos);
  return pos;
}

}  // namespace

std::vector<uint8_t> DeltaEncode(std::span<const uint8_t> base, std::span<const uint8_t> target,
                                 const DeltaOptions& options) {
  std::vector<uint8_t> out;
  DeltaEncodeInto(base, target, options, out);
  return out;
}

void DeltaEncodeInto(std::span<const uint8_t> base, std::span<const uint8_t> target,
                     const DeltaOptions& options, std::vector<uint8_t>& out,
                     DeltaScratch* scratch) {
  if (options.seed_length < 4) {
    throw DeltaError("seed_length must be >= 4");
  }
  out.reserve(target.size() / 4 + 32);
  // resize + memcpy rather than insert: GCC 12 at -O3 reports a false
  // -Wstringop-overflow / -Warray-bounds on the range insert.
  out.resize(sizeof(kMagic));
  std::memcpy(out.data(), kMagic, sizeof(kMagic));
  AppendVarint(out, base.size());
  AppendVarint(out, target.size());

  int level = std::clamp(options.level, 0, 9);
  if (level == 0 || base.size() < options.seed_length) {
    EmitAdd(out, target);
    return;
  }

  // Level controls index density (stride over base) and bucket depth.
  // Level 1: stride = seed/2, depth 2 (fast). Level 9: stride 1, depth 8.
  size_t stride = std::max<size_t>(1, options.seed_length / (1 + static_cast<size_t>(level)));
  size_t depth = 1 + static_cast<size_t>(level) / 2 + 1;
  DeltaScratch local_scratch;
  DeltaScratch& sc = scratch != nullptr ? *scratch : local_scratch;
  SeedIndex index(base, options.seed_length, stride, depth, sc.seed_slots);

  size_t pending = 0;  // start of unmatched literal run
  size_t pos = 0;
  while (pos + options.seed_length <= target.size()) {
    SeedIndex::Match m = index.FindBest(target, pos);
    if (m.base_off == SeedIndex::npos) {
      ++pos;
      continue;
    }
    // Extend backwards into the pending literal run.
    size_t back = kernels::MatchBackward(base.data() + m.base_off, target.data() + pos,
                                         std::min(pos - pending, m.base_off));
    size_t match_off = m.base_off - back;
    size_t match_pos = pos - back;
    size_t match_len = m.forward + back;
    if (match_len < options.min_match) {
      ++pos;
      continue;
    }
    EmitAdd(out, target.subspan(pending, match_pos - pending));
    EmitCopy(out, match_off, match_len);
    pos = match_pos + match_len;
    pending = pos;
  }
  EmitAdd(out, target.subspan(pending));
}

std::vector<uint8_t> DeltaDecode(std::span<const uint8_t> base, std::span<const uint8_t> delta) {
  std::vector<uint8_t> out;
  DeltaDecodeInto(base, delta, out);
  return out;
}

void DeltaDecodeInto(std::span<const uint8_t> base, std::span<const uint8_t> delta,
                     std::vector<uint8_t>& out) {
  uint64_t base_len = 0;
  uint64_t target_len = 0;
  const size_t ops_start = CheckHeader(delta, &base_len, &target_len);
  if (base_len != base.size()) {
    throw DeltaError("delta was computed against a different base length");
  }

  // Pass 1: validate the whole op stream — opcodes, varints and bounds —
  // before the output buffer is touched or sized. All checks are written in
  // subtraction form: `pos + len` style sums can wrap for huge varint
  // lengths and let a corrupt delta through.
  uint64_t total = 0;
  size_t pos = ops_start;
  while (pos < delta.size()) {
    uint8_t op = delta[pos++];
    if (op == kOpAdd) {
      uint64_t len = ReadVarint(delta, pos);
      if (len > delta.size() - pos) {
        throw DeltaError("ADD overruns delta");
      }
      pos += len;
      if (len > target_len - total) {
        throw DeltaError("reconstructed length mismatch");
      }
      total += len;
    } else if (op == kOpCopy) {
      uint64_t off = ReadVarint(delta, pos);
      uint64_t len = ReadVarint(delta, pos);
      if (off > base.size() || len > base.size() - off) {
        throw DeltaError("COPY overruns base");
      }
      if (len > target_len - total) {
        throw DeltaError("reconstructed length mismatch");
      }
      total += len;
    } else {
      throw DeltaError("unknown delta opcode");
    }
  }
  if (total != target_len) {
    throw DeltaError("reconstructed length mismatch");
  }

  // Pass 2: single sized allocation, then straight memcpys. The stream was
  // validated above, so this pass re-reads varints without re-checking.
  out.resize(target_len);
  uint8_t* dst = out.data();
  pos = ops_start;
  while (pos < delta.size()) {
    uint8_t op = delta[pos++];
    if (op == kOpAdd) {
      uint64_t len = ReadVarint(delta, pos);
      kernels::CopyBytes(dst, delta.data() + pos, len);
      pos += len;
      dst += len;
    } else {
      uint64_t off = ReadVarint(delta, pos);
      uint64_t len = ReadVarint(delta, pos);
      kernels::CopyBytes(dst, base.data() + off, len);
      dst += len;
    }
  }
}

DeltaStats InspectDelta(std::span<const uint8_t> delta) {
  DeltaStats stats;
  stats.delta_length = delta.size();
  uint64_t base_len = 0;
  uint64_t target_len = 0;
  size_t pos = CheckHeader(delta, &base_len, &target_len);
  stats.base_length = base_len;
  stats.target_length = target_len;
  while (pos < delta.size()) {
    uint8_t op = delta[pos++];
    if (op == kOpAdd) {
      uint64_t len = ReadVarint(delta, pos);
      if (len > delta.size() - pos) {
        throw DeltaError("ADD overruns delta");
      }
      stats.add_bytes += len;
      ++stats.add_ops;
      pos += len;
    } else if (op == kOpCopy) {
      ReadVarint(delta, pos);
      uint64_t len = ReadVarint(delta, pos);
      stats.copy_bytes += len;
      ++stats.copy_ops;
    } else {
      throw DeltaError("unknown delta opcode");
    }
  }
  return stats;
}

size_t DeltaTargetLength(std::span<const uint8_t> delta) {
  uint64_t base_len = 0;
  uint64_t target_len = 0;
  CheckHeader(delta, &base_len, &target_len);
  return target_len;
}

}  // namespace medes
