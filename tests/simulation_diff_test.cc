// Differential and fuzz coverage for the calendar-queue event engine.
//
// The engine's correctness claim is behavioural equivalence with a plain
// binary heap on (time, seq): bit-identical fire order for any
// schedule/cancel workload. These tests drive the engine and the small
// reference scheduler below with identical randomized workloads — including
// nested scheduling, cancels from inside callbacks, chunked RunUntil, and
// adversarial wheel geometries — and require the observed fire sequences to
// match element-for-element.
#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "sim/simulation.h"

namespace medes {
namespace {

// The reference scheduler: a binary heap of (time, seq) plus a map from
// handle to callback. A handle is its event's seq, so cancelling removes the
// map entry and the heap entry is dropped when it surfaces.
class ReferenceScheduler {
 public:
  SimTime Now() const { return now_; }

  EventId Schedule(SimTime t, std::function<void()> cb) {
    const EventId id = next_seq_++;
    queue_.push({t, id});
    callbacks_.emplace(id, std::move(cb));
    return id;
  }
  EventId ScheduleAfter(SimDuration delay, std::function<void()> cb) {
    return Schedule(now_ + delay, std::move(cb));
  }

  void Cancel(EventId id) { callbacks_.erase(id); }

  void Run() { RunUntil(kSimTimeMax); }
  void RunUntil(SimTime until) {
    while (!queue_.empty()) {
      const Entry e = queue_.top();
      auto it = callbacks_.find(e.seq);
      if (it == callbacks_.end()) {
        queue_.pop();  // cancelled
        continue;
      }
      if (e.time > until) {
        break;
      }
      queue_.pop();
      std::function<void()> cb = std::move(it->second);
      callbacks_.erase(it);
      now_ = e.time;
      ++events_processed_;
      cb();
    }
    if (until != kSimTimeMax && now_ < until) {
      now_ = until;
    }
  }

  uint64_t events_processed() const { return events_processed_; }

 private:
  struct Entry {
    SimTime time;
    uint64_t seq;
    bool operator>(const Entry& other) const {
      return time != other.time ? time > other.time : seq > other.seq;
    }
  };
  SimTime now_;
  uint64_t next_seq_ = 1;
  uint64_t events_processed_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
  std::unordered_map<EventId, std::function<void()>> callbacks_;
};

struct WorkloadResult {
  std::vector<uint64_t> fire_sequence;  // event labels in fire order
  uint64_t events_processed = 0;
  SimTime end_time;
};

// A deterministic randomized workload driven purely through the public API.
// Given the same seed it issues the same operation sequence against either
// scheduler: bursts of schedules (short, medium, and beyond-window delays),
// cancels of random live handles (sometimes twice, sometimes stale), nested
// scheduling and cancelling from inside callbacks, and chunked RunUntil
// progress with fresh schedules between chunks.
template <typename Scheduler>
WorkloadResult RunWorkload(Scheduler& sim, uint64_t seed) {
  Rng rng(seed);
  WorkloadResult out;
  std::vector<EventId> handles;
  uint64_t next_label = 0;

  std::function<void(uint64_t, int)> fire = [&](uint64_t label, int depth) {
    out.fire_sequence.push_back(label);
    // Nested behaviour is derived from the label, not a shared RNG, so it is
    // identical across schedulers regardless of memory layout.
    Rng local(seed ^ (label * 0x9e3779b97f4a7c15ull));
    if (depth < 3 && local.Bernoulli(0.4)) {
      const int children = static_cast<int>(local.Range(1, 3));
      for (int c = 0; c < children; ++c) {
        const uint64_t child = next_label++;
        const SimDuration delay{local.Range(0, 40'000)};
        handles.push_back(
            sim.ScheduleAfter(delay, [&fire, child, depth] { fire(child, depth + 1); }));
      }
    }
    if (!handles.empty() && local.Bernoulli(0.3)) {
      sim.Cancel(handles[local.Below(handles.size())]);
    }
  };

  SimTime horizon;
  for (int chunk = 0; chunk < 5; ++chunk) {
    for (int i = 0; i < 120; ++i) {
      const uint64_t label = next_label++;
      // Mix of near (in-bucket), mid (in-window), and far (overflow) delays.
      SimDuration delay;
      switch (rng.Below(3)) {
        case 0:
          delay = SimDuration{rng.Range(0, 100)};
          break;
        case 1:
          delay = SimDuration{rng.Range(0, 20'000)};
          break;
        default:
          delay = SimDuration{rng.Range(0, 2'000'000)};
          break;
      }
      handles.push_back(
          sim.Schedule(sim.Now() + delay, [&fire, label] { fire(label, 0); }));
    }
    for (int i = 0; i < 30 && !handles.empty(); ++i) {
      sim.Cancel(handles[rng.Below(handles.size())]);
    }
    horizon += SimDuration{300'000};
    sim.RunUntil(horizon);
  }
  sim.Run();
  out.events_processed = sim.events_processed();
  out.end_time = sim.Now();
  return out;
}

WorkloadResult RunCalendar(uint64_t seed, int width_log2 = 14, int buckets_log2 = 10) {
  Simulation sim(SimulationOptions{.bucket_width_log2 = width_log2,
                                   .num_buckets_log2 = buckets_log2});
  return RunWorkload(sim, seed);
}

WorkloadResult RunReference(uint64_t seed) {
  ReferenceScheduler sim;
  return RunWorkload(sim, seed);
}

TEST(SimulationDiffTest, RandomizedWorkloadsMatchHeap) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const WorkloadResult cal = RunCalendar(seed);
    const WorkloadResult heap = RunReference(seed);
    ASSERT_EQ(cal.fire_sequence, heap.fire_sequence) << "seed " << seed;
    EXPECT_EQ(cal.events_processed, heap.events_processed) << "seed " << seed;
    EXPECT_EQ(cal.end_time, heap.end_time) << "seed " << seed;
  }
}

// Adversarial geometries: one-bucket wheels, tiny windows (every event
// overflows and migrates), and wide buckets that pile everything into one
// lazily-sorted bucket must all preserve the contract.
TEST(SimulationDiffTest, AdversarialGeometriesMatchHeap) {
  const WorkloadResult heap = RunReference(0xfeed);
  const int geometries[][2] = {{0, 1}, {1, 2}, {4, 1}, {20, 2}, {2, 12}};
  for (const auto& g : geometries) {
    const WorkloadResult cal = RunCalendar(0xfeed, g[0], g[1]);
    ASSERT_EQ(cal.fire_sequence, heap.fire_sequence)
        << "geometry width_log2=" << g[0] << " buckets_log2=" << g[1];
    EXPECT_EQ(cal.events_processed, heap.events_processed);
  }
}

}  // namespace
}  // namespace medes
