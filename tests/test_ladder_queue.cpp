// Property/fuzz tests for the ladder-queue FEL and the EventQueue over it
// (sim/fel.hpp, sim/ladder_queue.hpp, sim/event_queue.hpp): the raw
// ladder's pop order against a binary heap over the same keys — on
// random, clustered and rung-edge timestamps, and on the shallow event
// list of a run with streamed arrivals, validated after every operation,
// with a named case for each shallow-regime rule (small Top batches
// spread, Bottom spills, the spill's rung cap, drained parents replaced)
// — and randomized push/pop/erase/update interleavings of the
// EventQueue against a std::set reference, including equal-key ties,
// skewed/bursty timestamp distributions, and the zero-width-bucket
// pathological case.  Then the allocation-free steady state (node-pool
// recycling), the bytes the ladder holds against its peak live set, the
// erase-of-minimum next_time() regression, and whole federation runs
// pinned to digests recorded with a 4-ary heap as the FEL.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "cluster/catalog.hpp"
#include "core/experiment.hpp"
#include "core/federation.hpp"
#include "core/outcome.hpp"
#include "sim/check.hpp"
#include "sim/event_queue.hpp"
#include "sim/fel.hpp"
#include "sim/ladder_queue.hpp"
#include "sim/random.hpp"
#include "workload/synthetic.hpp"

#include "alloc_counter.hpp"

namespace gridfed::sim {
namespace {

// ---- raw LadderQueue vs a binary heap: key-level equivalence ----------------

[[nodiscard]] FelKey make_key(SimTime t, unsigned prio, std::uint64_t seq,
                              std::uint32_t slot) {
  return (static_cast<FelKey>(std::bit_cast<std::uint64_t>(t)) << 64) |
         (static_cast<std::uint64_t>(prio) << (kFelSeqBits + kFelSlotBits)) |
         (seq << kFelSlotBits) | slot;
}

/// The reference model: a binary min-heap over the same keys.
using RefHeap =
    std::priority_queue<FelKey, std::vector<FelKey>, std::greater<>>;

FelKey pop_min(RefHeap& heap) {
  const FelKey key = heap.top();
  heap.pop();
  return key;
}

/// One push of the streamed pattern: a timestamp and a priority class.
struct StreamedPush {
  SimTime time;
  unsigned prio;
};

/// The shape of a federation run's event list once arrivals are
/// streamed: a few thousand live keys at most, most pushes one network
/// latency past the clock, same-instant reschedules in every priority
/// class, LRMS finishes on integer times, and rare far-future timers.
/// The live-set target wanders between 50 and 4,096 keys.
class StreamedPattern {
 public:
  static constexpr std::size_t kMaxLive = 4096;

  explicit StreamedPattern(std::uint64_t seed) : rng_(seed) {}

  /// Whether the next operation pushes (otherwise it pops).
  bool push_next(std::size_t live) {
    if (--phase_ == 0) {
      target_ = rng_.uniform_int(50, kMaxLive);
      phase_ = rng_.uniform_int(500, 20000);
    }
    if (live < 50) return true;
    if (live >= kMaxLive) return false;
    return rng_.uniform01() < (live < target_ ? 0.7 : 0.3);
  }

  /// The next push, `now` being the time of the last pop.
  StreamedPush next(SimTime now) {
    const double d = rng_.uniform01();
    if (d < 0.55) return {now + 0.1, 1};  // a message one latency on
    if (d < 0.70) {                       // a same-instant reschedule
      return {now, static_cast<unsigned>(rng_.uniform_int(0, 3))};
    }
    if (d < 0.90) {  // an LRMS finish on an integer time
      return {std::floor(now) + static_cast<SimTime>(rng_.uniform_int(1, 3600)),
              0};
    }
    if (d < 0.99) return {now + rng_.uniform01() * 600.0, 2};
    return {now + 1e5 + rng_.uniform01() * 1e5, 3};  // a far-future timer
  }

 private:
  Rng rng_;
  std::size_t target_ = 50;
  std::size_t phase_ = 1;
};

TEST(LadderQueue, PopOrderMatchesHeapOnRandomKeys) {
  Rng rng(7);
  RefHeap heap;
  LadderQueue ladder;
  for (std::uint64_t seq = 0; seq < 20000; ++seq) {
    const SimTime t = rng.uniform01() * 1e6;
    const auto prio = static_cast<unsigned>(rng.uniform_int(0, 3));
    const FelKey k = make_key(t, prio, seq, seq & kFelSlotMask);
    heap.push(k);
    ladder.push(k);
  }
  ASSERT_EQ(heap.size(), ladder.size());
  while (!heap.empty()) {
    ASSERT_EQ(heap.top(), ladder.min_key());
    ASSERT_EQ(pop_min(heap), ladder.pop_min());
  }
  EXPECT_TRUE(ladder.empty());
  ladder.debug_validate();
}

TEST(LadderQueue, InterleavedPushPopMatchesHeap) {
  // Pops interleave with pushes that never go below the last popped
  // time (the simulation's usage pattern), so keys route through every
  // tier: Top, rungs mid-consumption, and direct Bottom inserts.
  Rng rng(21);
  RefHeap heap;
  LadderQueue ladder;
  SimTime now = 0.0;
  std::uint64_t seq = 0;
  for (int step = 0; step < 60000; ++step) {
    const bool do_push = heap.empty() || rng.uniform01() < 0.52;
    if (do_push) {
      const SimTime t = now + rng.uniform01() * 64.0;
      const FelKey k = make_key(t, static_cast<unsigned>(rng.uniform_int(0, 3)),
                                seq, seq & kFelSlotMask);
      ++seq;
      heap.push(k);
      ladder.push(k);
    } else {
      const FelKey a = pop_min(heap);
      const FelKey b = ladder.pop_min();
      ASSERT_EQ(a, b) << "divergence at step " << step;
      now = fel_time_of(a);
    }
    if ((step & 4095) == 0) ladder.debug_validate();
  }
  while (!heap.empty()) ASSERT_EQ(pop_min(heap), ladder.pop_min());
  EXPECT_TRUE(ladder.empty());
}

TEST(LadderQueue, ZeroWidthBucketSortsStraightToBottom) {
  // Every key at one timestamp: the span cannot be subdivided, so the
  // transfer must fall through to the Bottom sort — no rung ever spawns,
  // no matter how large the batch — and ties pop in (priority, seq)
  // order.
  LadderQueue ladder;
  constexpr std::uint64_t kN = 10000;
  for (std::uint64_t seq = 0; seq < kN; ++seq) {
    ladder.push(make_key(42.0, static_cast<unsigned>(seq % 4), seq,
                         seq & kFelSlotMask));
  }
  FelKey prev = ladder.pop_min();
  EXPECT_EQ(ladder.active_rungs(), 0u);
  for (std::uint64_t i = 1; i < kN; ++i) {
    const FelKey k = ladder.pop_min();
    ASSERT_LT(prev, k);
    ASSERT_DOUBLE_EQ(fel_time_of(k), 42.0);
    prev = k;
  }
  EXPECT_TRUE(ladder.empty());
  ladder.debug_validate();
}

TEST(LadderQueue, ClusteredTimestampsDegradeGracefully) {
  // Bursty pathological mix: huge same-time spikes plus a skewed tail.
  // Oversized same-time buckets must hit the kMaxRungs / zero-width
  // guards and still pop in exact key order.
  Rng rng(1234);
  RefHeap heap;
  LadderQueue ladder;
  std::uint64_t seq = 0;
  for (int burst = 0; burst < 40; ++burst) {
    const SimTime spike = std::floor(rng.uniform01() * 16.0);
    for (int i = 0; i < 400; ++i) {
      const bool on_spike = rng.uniform01() < 0.8;
      const SimTime t =
          on_spike ? spike : spike + std::pow(rng.uniform01(), 8.0) * 1e5;
      const FelKey k = make_key(t, static_cast<unsigned>(rng.uniform_int(0, 3)),
                                seq, seq & kFelSlotMask);
      ++seq;
      heap.push(k);
      ladder.push(k);
    }
  }
  while (!heap.empty()) {
    ASSERT_EQ(pop_min(heap), ladder.pop_min());
  }
  EXPECT_TRUE(ladder.empty());
}

TEST(LadderQueue, KeysStampedOnRungEdgesPopInOrder) {
  // Keys stamped exactly at a rung edge — the coarsest rung's end is the
  // latest time of the last Top transfer, where the window end, epoch
  // boundaries and timeouts meet — keep arriving while the rungs below
  // are consumed.  Each must land in a live tier in full-key order: an
  // end-stamped key clamped into a consumed bucket of the coarsest rung
  // would make the next refill read past its bucket array.
  Rng rng(2718);
  for (int trial = 0; trial < 300; ++trial) {
    RefHeap heap;
    LadderQueue ladder;
    std::uint64_t seq = 0;
    const auto push = [&](SimTime t) {
      const FelKey k = make_key(t, static_cast<unsigned>(rng.uniform_int(0, 3)),
                                seq, seq & kFelSlotMask);
      ++seq;
      heap.push(k);
      ladder.push(k);
    };
    const SimTime lo = std::floor(rng.uniform01() * 1e5);
    const SimTime hi = lo + std::floor(1.0 + rng.uniform01() * 2e5);
    const SimTime width = (hi - lo) / 128.0;
    for (int i = 0; i < 3000; ++i) push(lo + (hi - lo) * rng.uniform01());
    for (int i = 0; i < 64; ++i) push(hi);
    while (!heap.empty()) {
      const FelKey a = pop_min(heap);
      ASSERT_EQ(a, ladder.pop_min()) << "trial " << trial;
      const SimTime now = fel_time_of(a);
      const double dice = rng.uniform01();
      if (dice < 0.3) {
        push(hi);
      } else if (dice < 0.45) {
        // A bucket edge of the coarsest rung at or after now.
        const SimTime edge =
            lo + width * std::ceil((now - lo) / width + rng.uniform01() * 4.0);
        if (edge >= now && edge <= hi) push(edge);
      } else if (dice < 0.6) {
        push(now + (hi - now) * rng.uniform01());
      }
      if ((seq & 1023) == 0) ladder.debug_validate();
    }
    EXPECT_TRUE(ladder.empty());
  }
}

/// A ladder and the reference heap, fed the same keys.
struct Mirror {
  RefHeap heap;
  LadderQueue ladder;
  std::uint64_t seq = 0;

  void push(SimTime t, unsigned prio) {
    const FelKey k = make_key(t, prio, seq, seq & kFelSlotMask);
    ++seq;
    heap.push(k);
    ladder.push(k);
  }

  /// Pops everything and checks it comes out in full-key order, the
  /// ladder validating after every pop.
  void drain() {
    ASSERT_EQ(ladder.size(), heap.size());
    while (!heap.empty()) {
      ASSERT_EQ(pop_min(heap), ladder.pop_min());
      ASSERT_NO_THROW(ladder.debug_validate());
    }
    EXPECT_TRUE(ladder.empty());
  }
};

TEST(LadderQueue, StreamedPatternMatchesHeapUnderValidation) {
  // The shallow regime streamed arrivals leave: small Top batches,
  // pushes below the finest rung's frontier, Bottom spills and prefix
  // compaction.  The structure is validated after every operation.
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE(seed);
    StreamedPattern pattern(seed);
    Mirror m;
    SimTime now = 0.0;
    for (int step = 0; step < 40000; ++step) {
      if (pattern.push_next(m.heap.size())) {
        const StreamedPush p = pattern.next(now);
        m.push(p.time, p.prio);
      } else {
        const FelKey want = pop_min(m.heap);
        ASSERT_EQ(m.ladder.pop_min(), want) << "step " << step;
        now = fel_time_of(want);
      }
      ASSERT_EQ(m.ladder.size(), m.heap.size());
      ASSERT_NO_THROW(m.ladder.debug_validate()) << "step " << step;
    }
    m.drain();
  }
}

TEST(LadderQueue, TwoKeyTopBatchSpreadsIntoARung) {
  // A Top batch sorted straight into Bottom would set the Top floor to
  // its latest key and turn every push before it into a sorted insert.
  Mirror m;
  m.push(3.0, 2);
  m.push(900.0, 2);
  ASSERT_EQ(m.ladder.min_key(), m.heap.top());
  EXPECT_EQ(m.ladder.active_rungs(), 1u);
  EXPECT_EQ(m.ladder.materialized_run(), 1u);  // only the first bucket sorted
  m.drain();
}

TEST(LadderQueue, BottomSpillsBelowTheFinestRungsFrontier) {
  // Keys 0 and 1280 spread into a rung of 10 s buckets; the key at 0
  // surfaces into Bottom, and the frontier moves to 10.  Pushes below it
  // belong to Bottom: ascending ones append, until a sorted insert finds
  // more than kSortThreshold keys there and spills them into a finer rung
  // over [0, 10).  Only the keys of that rung's first bucket, [0, 10/128),
  // stay in Bottom.
  Mirror m;
  m.push(0.0, 2);
  m.push(1280.0, 2);
  ASSERT_EQ(m.ladder.min_key(), m.heap.top());
  ASSERT_EQ(m.ladder.active_rungs(), 1u);
  for (std::size_t i = 1; i <= LadderQueue::kSortThreshold; ++i) {
    m.push(0.1 * static_cast<SimTime>(i), 1);
  }
  ASSERT_EQ(m.ladder.materialized_run(), LadderQueue::kSortThreshold + 1);
  m.push(0.05, 1);  // sorts into the middle: spills
  EXPECT_EQ(m.ladder.active_rungs(), 2u);
  EXPECT_EQ(m.ladder.materialized_run(), 2u);  // the keys at 0 and 0.05
  ASSERT_NO_THROW(m.ladder.debug_validate());
  m.push(9.99, 0);  // below the old frontier: the spill rung owns it
  m.push(10.0, 0);  // at the frontier: the coarse rung's bucket 1
  EXPECT_EQ(m.ladder.active_rungs(), 2u);
  m.drain();
}

TEST(LadderQueue, BottomSpillsWithoutARungBelowTheTopFloor) {
  // A zero-width Top batch at 100 sorts straight into Bottom and sets
  // the Top floor to 100, with no rung.  Keys pushed before it sort into
  // Bottom until one finds more than kSortThreshold keys there: Bottom
  // then spills into a coarsest rung over [head, 100], keeping only the
  // keys of its first bucket.  Keys at exactly the floor go to that rung,
  // never to Top, so a lower priority class at 100 still pops before the
  // batch.
  Mirror m;
  for (int i = 0; i < 8; ++i) m.push(100.0, 2);
  ASSERT_EQ(m.ladder.min_key(), m.heap.top());
  ASSERT_EQ(m.ladder.active_rungs(), 0u);
  for (std::size_t i = 1; i <= LadderQueue::kSortThreshold; ++i) {
    m.push(100.0 - static_cast<SimTime>(i), 1);  // each sorts before the last
  }
  EXPECT_EQ(m.ladder.active_rungs(), 1u);
  EXPECT_LT(m.ladder.materialized_run(), LadderQueue::kSortThreshold);
  ASSERT_NO_THROW(m.ladder.debug_validate());
  m.push(100.0, 0);  // floor-equal, below the batch's class
  m.push(100.0, 3);  // floor-equal, above it
  m.push(100.5, 0);  // strictly later: Top
  EXPECT_EQ(m.ladder.active_rungs(), 1u);
  m.drain();
}

TEST(LadderQueue, SpillIsRefusedAtTheRungCap) {
  // One key at 1 and one at 64 * w_k for each rung k (w_k = 128^-(k+1),
  // rung k's bucket width) keep every rung alive while a cluster of 100
  // keys near 0 sits in bucket 0 of each: the refill spawns rung after
  // rung down to kMaxRungs, then sorts the cluster into Bottom.  A
  // sorted insert into that Bottom cannot spill.
  Mirror m;
  m.push(1.0, 2);
  SimTime width = 1.0;
  for (std::size_t k = 0; k < LadderQueue::kMaxRungs; ++k) {
    width /= static_cast<SimTime>(LadderQueue::kBucketsPerRung);
    m.push(64.0 * width, 2);
  }
  for (int i = 0; i < 100; ++i) m.push(static_cast<SimTime>(i) * 1e-40, 2);
  ASSERT_EQ(m.ladder.min_key(), m.heap.top());
  ASSERT_EQ(m.ladder.active_rungs(), LadderQueue::kMaxRungs);
  ASSERT_EQ(m.ladder.materialized_run(), 100u);
  m.push(0.5e-40, 1);  // sorts into the middle of Bottom
  EXPECT_EQ(m.ladder.active_rungs(), LadderQueue::kMaxRungs);
  EXPECT_EQ(m.ladder.materialized_run(), 101u);
  m.drain();
}

TEST(LadderQueue, ChildOfTheLastLiveBucketReplacesItsParent) {
  // One key at 0 and 100 keys in the last bucket of the rung they
  // spread into.  Once the key at 0 is gone, that bucket is the rung's
  // last live one: its oversized contents spawn a child, which must
  // take the drained parent's place (and its end) rather than sit above
  // a rung with no keys.
  Mirror m;
  m.push(0.0, 2);
  for (int i = 0; i < 100; ++i) m.push(127.5 + 0.001 * i, 2);
  ASSERT_EQ(pop_min(m.heap), m.ladder.pop_min());
  ASSERT_EQ(m.ladder.min_key(), m.heap.top());
  EXPECT_EQ(m.ladder.active_rungs(), 1u);
  ASSERT_NO_THROW(m.ladder.debug_validate());
  m.push(127.599, 0);  // the Top floor: the child's clamped last bucket
  m.push(127.55, 0);
  EXPECT_EQ(m.ladder.active_rungs(), 1u);
  m.drain();
}

// ---- EventQueue vs a std::set reference -------------------------------------

struct PopRecord {
  SimTime time;
  EventPriority priority;
  EventSeq seq;
};

bool record_before(const PopRecord& a, const PopRecord& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.priority != b.priority) return a.priority < b.priority;
  return a.seq < b.seq;
}

struct LiveEvent {
  PopRecord rec;
  EventQueue::EventHandle handle;
};

/// Drives a random push/pop/erase/update interleaving through the queue,
/// which must agree with the std::set reference at every step;
/// `next_push_time` shapes the timestamp distribution.
template <typename NextTime>
void run_queue_fuzz(std::uint64_t seed, int steps, NextTime next_push_time) {
  Rng rng(seed);
  EventQueue q;
  std::set<PopRecord, decltype(&record_before)> ref(&record_before);
  std::vector<LiveEvent> live;
  SimTime now = 0.0;
  EventSeq seq = 0;

  for (int step = 0; step < steps; ++step) {
    const double dice = rng.uniform01();
    if (live.empty() || dice < 0.52) {  // push
      const SimTime t = now + next_push_time(rng);
      const auto prio = static_cast<EventPriority>(rng.uniform_int(0, 3));
      LiveEvent ev;
      ev.rec = PopRecord{t, prio, seq};
      ev.handle = q.push(Event{t, prio, seq, [] {}});
      ref.insert(ev.rec);
      live.push_back(ev);
      ++seq;
    } else if (dice < 0.84) {  // pop
      const PopRecord want = *ref.begin();
      ref.erase(ref.begin());
      ASSERT_DOUBLE_EQ(q.next_time(), want.time);
      const Event got = q.pop();
      ASSERT_DOUBLE_EQ(got.time, want.time);
      ASSERT_EQ(got.priority, want.priority);
      ASSERT_EQ(got.seq, want.seq);
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i].rec.seq == want.seq) {
          live[i] = live.back();
          live.pop_back();
          break;
        }
      }
      now = want.time;
    } else if (dice < 0.94) {  // erase a random pending event
      const auto idx =
          static_cast<std::size_t>(rng.uniform_int(0, live.size() - 1));
      const LiveEvent victim = live[idx];
      live[idx] = live.back();
      live.pop_back();
      ref.erase(victim.rec);
      ASSERT_TRUE(q.erase(victim.handle));
      ASSERT_FALSE(q.erase(victim.handle)) << "double erase must fail";
    } else {  // reschedule a random pending event
      const auto idx =
          static_cast<std::size_t>(rng.uniform_int(0, live.size() - 1));
      LiveEvent& ev = live[idx];
      const SimTime t = now + next_push_time(rng);
      ref.erase(ev.rec);
      ev.rec.time = t;
      ev.rec.seq = seq;
      ref.insert(ev.rec);
      const auto old = ev.handle;
      ev.handle = q.update_key(old, t, seq);
      ASSERT_TRUE(ev.handle.valid());
      ASSERT_FALSE(q.erase(old)) << "stale handle must be dead";
      ++seq;
    }

    ASSERT_EQ(q.size(), ref.size());
    ASSERT_DOUBLE_EQ(q.next_time(),
                     ref.empty() ? kTimeInfinity : ref.begin()->time);
    if ((step & 1023) == 0) q.debug_validate();
  }

  // Drain: the queue hands out the reference's remaining stream.
  while (!ref.empty()) {
    const PopRecord want = *ref.begin();
    ref.erase(ref.begin());
    ASSERT_EQ(q.pop().seq, want.seq);
  }
  EXPECT_TRUE(q.empty());
  q.debug_validate();
}

TEST(EventQueueFuzz, UniformTimestamps) {
  run_queue_fuzz(101, 20000,
                   [](Rng& rng) { return rng.uniform01() * 256.0; });
}

TEST(EventQueueFuzz, BurstyTimestamps) {
  // Dense same-instant bursts with rare far jumps: heavy (time,
  // priority) collisions exercise the seq tie-break through the rung
  // binning, plus occasional huge spans exercise re-spawning.
  run_queue_fuzz(202, 20000, [](Rng& rng) -> SimTime {
    const double d = rng.uniform01();
    if (d < 0.45) return 0.0;
    if (d < 0.9) return static_cast<double>(rng.uniform_int(1, 4));
    return rng.uniform01() * 1e5;
  });
}

TEST(EventQueueFuzz, SkewedTimestamps) {
  // Heavy-tailed deltas (pow-8 skew): most keys cluster tightly, a few
  // land far out — the distribution that forces deep rung recursion.
  run_queue_fuzz(303, 20000, [](Rng& rng) {
    return std::pow(rng.uniform01(), 8.0) * 4096.0;
  });
}

TEST(EventQueueFuzz, ZeroWidthTimestamps) {
  // Every push at the current instant: the all-equal pathological case
  // end-to-end through the queue (buckets can never subdivide).
  run_queue_fuzz(404, 12000, [](Rng&) { return 0.0; });
}

// ---- satellite fix: erase of the minimum vs cached next_time ----------------

TEST(EventQueueErase, EraseOfMinimumInvalidatesCachedNextTime) {
  EventQueue q;
  const auto h1 = q.push(Event{1.0, EventPriority::kArrival, 0, [] {}});
  (void)q.push(Event{2.0, EventPriority::kArrival, 1, [] {}});
  const auto h3 = q.push(Event{3.0, EventPriority::kArrival, 2, [] {}});
  ASSERT_DOUBLE_EQ(q.next_time(), 1.0);
  // The regression: erasing the head must re-derive the cache, not
  // leave it pointing at the dead event.
  ASSERT_TRUE(q.erase(h1));
  ASSERT_DOUBLE_EQ(q.next_time(), 2.0);
  q.debug_validate();
  // Erasing a non-minimum leaves the cache alone...
  ASSERT_TRUE(q.erase(h3));
  ASSERT_DOUBLE_EQ(q.next_time(), 2.0);
  EXPECT_EQ(q.size(), 1u);
  // ...and the tombstone never surfaces through pop.
  const Event got = q.pop();
  EXPECT_EQ(got.seq, 1u);
  EXPECT_TRUE(q.empty());
  EXPECT_DOUBLE_EQ(q.next_time(), kTimeInfinity);
  q.debug_validate();
}

TEST(EventQueueErase, UpdateKeyMovesEventAndCachedTime) {
  EventQueue q;
  auto ha = q.push(Event{5.0, EventPriority::kMessage, 0, [] {}});
  (void)q.push(Event{7.0, EventPriority::kMessage, 1, [] {}});
  // Reschedule the minimum later: the cache must follow.
  ha = q.update_key(ha, 9.0, 2);
  ASSERT_TRUE(ha.valid());
  ASSERT_DOUBLE_EQ(q.next_time(), 7.0);
  // Reschedule it earliest again.
  ha = q.update_key(ha, 1.0, 3);
  ASSERT_DOUBLE_EQ(q.next_time(), 1.0);
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().seq, 3u);
  EXPECT_EQ(q.pop().seq, 1u);
  q.debug_validate();
}

TEST(EventQueueErase, HandlesDieOnPop) {
  EventQueue q;
  const auto h = q.push(Event{1.0, EventPriority::kControl, 0, [] {}});
  (void)q.pop();
  EXPECT_FALSE(q.erase(h));
  EXPECT_FALSE(q.update_key(h, 2.0, 1).valid());
}

// ---- the allocation-free steady state ---------------------------------------

TEST(LadderQueueAlloc, SteadyStatePushPopIsAllocationFree) {
  // Each input runs twice on a fresh queue, identically.  The first pass
  // takes the node pool and every vector to its high-water mark; the
  // second must run entirely on recycled storage — bucket nodes come
  // off the free list, and Top and Bottom keep (or trade) their
  // capacity.
  const std::function<void(EventQueue&)> inputs[] = {
      // A deep pending set, pushes and pops interleaved at random.
      [](EventQueue& q) {
        Rng rng(5150);
        SimTime now = 0.0;
        EventSeq seq = 0;
        InlineFunction action;
        for (int i = 0; i < 6000; ++i) {
          (void)q.push(Event{now + rng.uniform01() * 128.0,
                             EventPriority::kArrival, seq++, [] {}});
        }
        for (int step = 0; step < 30000; ++step) {
          if (rng.uniform01() < 0.5) {
            (void)q.push(Event{now + rng.uniform01() * 128.0,
                               EventPriority::kArrival, seq++, [] {}});
          } else if (!q.empty()) {
            now = q.pop_into(action);
          }
        }
        while (!q.empty()) (void)q.pop_into(action);
      },
      // 1024 keys at 97 integer times, all pushed, then all popped: a
      // small pending set full of equal-time ties.
      [](EventQueue& q) {
        InlineFunction action;
        for (EventSeq s = 0; s < 1024; ++s) {
          (void)q.push(Event{static_cast<double>((s * 31) % 97),
                             EventPriority::kArrival, s, [] {}});
        }
        while (!q.empty()) (void)q.pop_into(action);
      },
      // The streamed federation pattern: a shallow, wandering live set
      // with Bottom spills and small Top batches.
      [](EventQueue& q) {
        StreamedPattern pattern(6174);
        SimTime now = 0.0;
        EventSeq seq = 0;
        InlineFunction action;
        for (int step = 0; step < 60000; ++step) {
          if (pattern.push_next(q.size())) {
            const StreamedPush p = pattern.next(now);
            (void)q.push(Event{p.time, static_cast<EventPriority>(p.prio),
                               seq++, [] {}});
          } else {
            now = q.pop_into(action);
          }
        }
        while (!q.empty()) (void)q.pop_into(action);
      },
  };
  for (std::size_t i = 0; i < std::size(inputs); ++i) {
    SCOPED_TRACE(i);
    EventQueue q;
    inputs[i](q);  // warm-up
    const std::uint64_t before = g_allocations.load();
    inputs[i](q);
    const std::uint64_t after = g_allocations.load();
    EXPECT_EQ(after - before, 0u) << "ladder steady state allocated";
  }
}

TEST(LadderQueueAlloc, HeldBytesFollowThePeakLiveSet) {
  // About a million operations of the streamed pattern, never more than
  // 4,096 live keys: what the ladder holds must follow its peak live set
  // (a node and a few vector slots per key), not the number of events
  // processed nor every bucket's high-water capacity.
  const std::int64_t before = g_live_bytes.load();
  std::size_t peak = 0;
  std::int64_t held = 0;
  {
    StreamedPattern pattern(99);
    LadderQueue ladder;
    SimTime now = 0.0;
    std::uint64_t seq = 0;
    for (int step = 0; step < 1000000; ++step) {
      if (pattern.push_next(ladder.size())) {
        const StreamedPush p = pattern.next(now);
        ladder.push(make_key(p.time, p.prio, seq, seq & kFelSlotMask));
        ++seq;
        peak = std::max(peak, ladder.size());
      } else {
        now = fel_time_of(ladder.pop_min());
      }
    }
    held = g_live_bytes.load() - before;
  }
  const std::int64_t left = g_live_bytes.load() - before;
  EXPECT_EQ(left, 0) << "the ladder's storage outlived it";
  EXPECT_GT(peak, StreamedPattern::kMaxLive * 3 / 4);
  EXPECT_LE(held, static_cast<std::int64_t>(128 * peak))
      << "bytes held at a peak of " << peak << " live keys";
}

TEST(LadderQueueAlloc, BottomThatNeverDrainsStaysInItsBuffer) {
  // Keys 0 and 1e6 spread into a rung of 7812.5 s buckets, and the key
  // at 0 surfaces into Bottom.  Then every pop is answered by a push
  // just past Bottom's last key: an append, so Bottom never drains and
  // its consumed prefix never resets.  Compacting that prefix keeps
  // Bottom in its buffer; without it Bottom grows with every pop.
  LadderQueue ladder;
  std::uint64_t seq = 0;
  const auto push = [&](SimTime t) {
    ladder.push(make_key(t, 2, seq, seq & kFelSlotMask));
    ++seq;
  };
  push(0.0);
  push(1e6);
  (void)ladder.min_key();
  SimTime last = 0.0;
  for (int i = 0; i < 16; ++i) push(last += 1e-3);
  const std::uint64_t before = g_allocations.load();
  for (int step = 0; step < 100000; ++step) {
    (void)ladder.pop_min();
    push(last += 1e-3);
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(ladder.active_rungs(), 1u);  // every push went to Bottom
  EXPECT_EQ(ladder.materialized_run(), 17u);
  ladder.debug_validate();
}

// ---- whole federation runs pinned to heap-FEL digests -----------------------
// The ladder pops in the (time, priority, seq) total order a heap over
// the same keys pops in, so a federation run must reproduce, field for
// field, the digest the same run gave with a 4-ary min-heap as the FEL:
// same draw order, same FP accumulation order.  Every golden below was
// recorded with that heap.

/// What the pins compare, every field exactly.
struct FederationDigest {
  std::uint64_t outcomes = 0;  ///< core::outcome_digest
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t relay_messages = 0;
  std::uint64_t dropped = 0;
  double total_incentive = 0.0;
  double msgs_per_job_mean = 0.0;
};

FederationDigest run_federation(const core::FederationConfig& cfg,
                                std::size_t n) {
  const auto specs = cluster::replicated_specs(n);
  core::Federation fed(cfg, specs);
  const auto traces =
      workload::generate_federation_workload(specs, cfg.window, cfg.seed);
  std::optional<workload::PopulationProfile> profile;
  if (cfg.mode == core::SchedulingMode::kEconomy ||
      cfg.mode == core::SchedulingMode::kAuction) {
    profile = workload::PopulationProfile{30};
  }
  fed.load_workload(traces, profile);
  const core::FederationResult result = fed.run();
  return FederationDigest{core::outcome_digest(fed.outcomes()),
                          result.total_messages,
                          result.total_message_bytes,
                          result.overlay_relay_messages,
                          fed.messages_dropped(),
                          result.total_incentive,
                          result.msgs_per_job.mean()};
}

void expect_identical(const FederationDigest& a, const FederationDigest& b) {
  EXPECT_EQ(a.outcomes, b.outcomes);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.relay_messages, b.relay_messages);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.total_incentive, b.total_incentive);
  EXPECT_EQ(a.msgs_per_job_mean, b.msgs_per_job_mean);
}

/// A sqrt(2) s WAN latency spreads each negotiation over distinct,
/// non-integer timestamps instead of collapsing it into one instant.
constexpr double kWanLatency = 1.4142135623730951;

core::FederationConfig wan_config(core::SchedulingMode mode) {
  auto cfg = core::make_config(mode, 4242);
  cfg.network_latency = kWanLatency;
  return cfg;
}

/// One scheduling mode's WAN run at 12 clusters and its heap-FEL digest.
struct ModePin {
  core::SchedulingMode mode;
  FederationDigest heap;
};

class FelBackendModes : public ::testing::TestWithParam<ModePin> {};

TEST_P(FelBackendModes, MatchesHeapDigest) {
  expect_identical(run_federation(wan_config(GetParam().mode), 12),
                   GetParam().heap);
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, FelBackendModes,
    ::testing::Values(
        ModePin{core::SchedulingMode::kIndependent,
                {0x6f5b8921c9fe221dULL, 0, 0, 0, 0, 2487413213.677989, 0.0}},
        ModePin{core::SchedulingMode::kFederationNoEconomy,
                {0x7285fcad87aa1e24ULL, 10860, 1737600, 0, 0,
                 2868069773.9816551, 2.5409452503509584}},
        ModePin{core::SchedulingMode::kEconomy,
                {0xe889aa2f4b56f409ULL, 28130, 4500800, 0, 0,
                 2767664531.8655791, 6.5816565278427799}},
        ModePin{core::SchedulingMode::kAuction,
                {0x9d5e379c9ff25391ULL, 106060, 16969600, 0, 0,
                 2557973287.3077283, 24.815161441272824}}),
    [](const auto& info) {
      std::string name = to_string(info.param.mode);
      std::replace(name.begin(), name.end(), '+', '_');
      return name;
    });

TEST(FelBackend, BatchedAuctionMatchesHeapDigestAt50Clusters) {
  // The auction with batched solicitation over the direct transport at
  // 50 clusters: the deepest pending set of the pins.
  auto batched = core::make_config(core::SchedulingMode::kAuction);
  batched.auction.batch_solicitations = true;
  batched.auction.solicit_batch_window = 300.0;
  batched.network_latency = kWanLatency;
  expect_identical(run_federation(batched, 50),
                   {0x1fd7eade7185713eULL, 895188, 204278144, 0, 0,
                    11206189212.69622, 54.083373610439786});
}

TEST(FelBackend, TreeCoalitionChurnMatchesHeapDigest) {
  // The hardest configuration: tree transport + coalitions + membership
  // churn.
  auto cfg = wan_config(core::SchedulingMode::kAuction);
  cfg.transport.kind = transport::TransportKind::kTree;
  cfg.coalitions.enabled = true;
  cfg.coalitions.bucket_size = 4;
  cfg.negotiate_timeout = 400.31415927;  // > relayed hops + tree_epoch hold
  cfg.auction.bid_timeout = 400.31415927;
  cfg.membership.enabled = true;
  cfg.membership.gossip_period = 125.66370614;
  cfg.membership.churn.events.push_back(
      membership::ChurnEvent{30000.0, 2, membership::ChurnKind::kCrash});
  cfg.membership.churn.events.push_back(
      membership::ChurnEvent{50000.0, 5, membership::ChurnKind::kLeave});
  cfg.membership.churn.events.push_back(
      membership::ChurnEvent{90000.0, 5, membership::ChurnKind::kJoin});
  expect_identical(run_federation(cfg, 16),
                   {0xb10ef5b5eef7f81dULL, 136764, 48208040, 37169, 0,
                    3375337772.6612234, 3.1508264462809952});
}

}  // namespace
}  // namespace gridfed::sim
