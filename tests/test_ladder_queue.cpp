// Property/fuzz tests for the ladder-queue FEL and the hybrid EventQueue
// (sim/fel.hpp, sim/ladder_queue.hpp, sim/event_queue.hpp): randomized
// push/pop/erase/update interleavings asserting pop-order and digest
// equality between the heap, ladder, and hybrid backings against a
// std::set reference — including equal-key ties, skewed/bursty timestamp
// distributions, and the zero-width-bucket pathological case — plus the
// allocation-free steady-state contract (rung/bucket recycling), the
// erase-of-minimum next_time() regression, and whole federation runs
// pinned bit-identical across the three FEL backends.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <new>
#include <optional>
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

// ---- allocation counting ----------------------------------------------------
// Same instrumentation as test_event_kernel.cpp: global new/delete are
// replaced so the recycling contract is asserted, not assumed.

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace gridfed::sim {
namespace {

// ---- raw LadderQueue vs HeapFel: key-level equivalence ----------------------

[[nodiscard]] FelKey make_key(SimTime t, unsigned prio, std::uint64_t seq,
                              std::uint32_t slot) {
  return (static_cast<FelKey>(std::bit_cast<std::uint64_t>(t)) << 64) |
         (static_cast<std::uint64_t>(prio) << (kFelSeqBits + kFelSlotBits)) |
         (seq << kFelSlotBits) | slot;
}

TEST(LadderQueue, PopOrderMatchesHeapOnRandomKeys) {
  Rng rng(7);
  HeapFel heap;
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
    ASSERT_EQ(heap.min_key(), ladder.min_key());
    ASSERT_EQ(heap.pop_min(), ladder.pop_min());
  }
  EXPECT_TRUE(ladder.empty());
  ladder.debug_validate();
}

TEST(LadderQueue, InterleavedPushPopMatchesHeap) {
  // Pops interleave with pushes that never go below the last popped
  // time (the simulation's usage pattern), so keys route through every
  // tier: Top, rungs mid-consumption, and direct Bottom inserts.
  Rng rng(21);
  HeapFel heap;
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
      const FelKey a = heap.pop_min();
      const FelKey b = ladder.pop_min();
      ASSERT_EQ(a, b) << "divergence at step " << step;
      now = fel_time_of(a);
    }
    if ((step & 4095) == 0) ladder.debug_validate();
  }
  while (!heap.empty()) ASSERT_EQ(heap.pop_min(), ladder.pop_min());
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
  HeapFel heap;
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
    ASSERT_EQ(heap.pop_min(), ladder.pop_min());
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
    HeapFel heap;
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
      const FelKey a = heap.pop_min();
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

// ---- hybrid EventQueue: backend-equivalence fuzz ----------------------------

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

// The four configurations under test: every op sequence is applied to
// all of them in lockstep, and each must agree with the std::set
// reference at every step.  The small-threshold hybrid crosses the
// spill (128) and un-spill (32) boundaries many times per run.
constexpr std::size_t kNumQueues = 4;

std::array<FelConfig, kNumQueues> fuzz_configs() {
  return {FelConfig{FelConfig::Kind::kHeap, 8192},
          FelConfig{FelConfig::Kind::kLadder, 8192},
          FelConfig{FelConfig::Kind::kHybrid, 8192},
          FelConfig{FelConfig::Kind::kHybrid, 128}};
}

struct LiveEvent {
  PopRecord rec;
  std::array<EventQueue::EventHandle, kNumQueues> handles;
};

/// Drives an identical random push/pop/erase/update interleaving through
/// all four backends; `next_push_time` shapes the timestamp distribution.
template <typename NextTime>
void run_backend_fuzz(std::uint64_t seed, int steps, NextTime next_push_time) {
  Rng rng(seed);
  const auto cfgs = fuzz_configs();
  std::vector<EventQueue> queues;
  queues.reserve(kNumQueues);
  for (const auto& cfg : cfgs) queues.emplace_back(cfg);

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
      for (std::size_t q = 0; q < kNumQueues; ++q) {
        ev.handles[q] = queues[q].push(Event{t, prio, seq, [] {}});
      }
      ref.insert(ev.rec);
      live.push_back(ev);
      ++seq;
    } else if (dice < 0.84) {  // pop
      const PopRecord want = *ref.begin();
      ref.erase(ref.begin());
      for (std::size_t q = 0; q < kNumQueues; ++q) {
        ASSERT_DOUBLE_EQ(queues[q].next_time(), want.time) << "queue " << q;
        const Event got = queues[q].pop();
        ASSERT_DOUBLE_EQ(got.time, want.time) << "queue " << q;
        ASSERT_EQ(got.priority, want.priority) << "queue " << q;
        ASSERT_EQ(got.seq, want.seq) << "queue " << q;
      }
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
      for (std::size_t q = 0; q < kNumQueues; ++q) {
        ASSERT_TRUE(queues[q].erase(victim.handles[q])) << "queue " << q;
        ASSERT_FALSE(queues[q].erase(victim.handles[q]))
            << "double erase must fail, queue " << q;
      }
    } else {  // reschedule a random pending event
      const auto idx =
          static_cast<std::size_t>(rng.uniform_int(0, live.size() - 1));
      LiveEvent& ev = live[idx];
      const SimTime t = now + next_push_time(rng);
      ref.erase(ev.rec);
      ev.rec.time = t;
      ev.rec.seq = seq;
      ref.insert(ev.rec);
      for (std::size_t q = 0; q < kNumQueues; ++q) {
        const auto old = ev.handles[q];
        ev.handles[q] = queues[q].update_key(old, t, seq);
        ASSERT_TRUE(ev.handles[q].valid()) << "queue " << q;
        ASSERT_FALSE(queues[q].erase(old))
            << "stale handle must be dead, queue " << q;
      }
      ++seq;
    }

    const SimTime want_next = ref.empty() ? kTimeInfinity : ref.begin()->time;
    for (std::size_t q = 0; q < kNumQueues; ++q) {
      ASSERT_EQ(queues[q].size(), ref.size()) << "queue " << q;
      ASSERT_DOUBLE_EQ(queues[q].next_time(), want_next) << "queue " << q;
    }
    if ((step & 1023) == 0) {
      for (auto& q : queues) q.debug_validate();
    }
  }

  // Drain: every queue hands out the identical remaining stream.
  while (!ref.empty()) {
    const PopRecord want = *ref.begin();
    ref.erase(ref.begin());
    for (std::size_t q = 0; q < kNumQueues; ++q) {
      const Event got = queues[q].pop();
      ASSERT_EQ(got.seq, want.seq) << "queue " << q;
    }
  }
  for (auto& q : queues) {
    EXPECT_TRUE(q.empty());
    q.debug_validate();
  }
}

TEST(EventQueueFuzz, UniformTimestamps) {
  run_backend_fuzz(101, 20000,
                   [](Rng& rng) { return rng.uniform01() * 256.0; });
}

TEST(EventQueueFuzz, BurstyTimestamps) {
  // Dense same-instant bursts with rare far jumps: heavy (time,
  // priority) collisions exercise the seq tie-break through the rung
  // binning, plus occasional huge spans exercise re-spawning.
  run_backend_fuzz(202, 20000, [](Rng& rng) -> SimTime {
    const double d = rng.uniform01();
    if (d < 0.45) return 0.0;
    if (d < 0.9) return static_cast<double>(rng.uniform_int(1, 4));
    return rng.uniform01() * 1e5;
  });
}

TEST(EventQueueFuzz, SkewedTimestamps) {
  // Heavy-tailed deltas (pow-8 skew): most keys cluster tightly, a few
  // land far out — the distribution that forces deep rung recursion.
  run_backend_fuzz(303, 20000, [](Rng& rng) {
    return std::pow(rng.uniform01(), 8.0) * 4096.0;
  });
}

TEST(EventQueueFuzz, ZeroWidthTimestamps) {
  // Every push at the current instant: the all-equal pathological case
  // end-to-end through the hybrid (buckets can never subdivide).
  run_backend_fuzz(404, 12000, [](Rng&) { return 0.0; });
}

// ---- satellite fix: erase of the minimum vs cached next_time ----------------

TEST(EventQueueErase, EraseOfMinimumInvalidatesCachedNextTime) {
  for (const auto& cfg : fuzz_configs()) {
    EventQueue q(cfg);
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
}

TEST(EventQueueErase, UpdateKeyMovesEventAndCachedTime) {
  for (const auto& cfg : fuzz_configs()) {
    EventQueue q(cfg);
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
}

TEST(EventQueueErase, HandlesDieOnPop) {
  EventQueue q;
  const auto h = q.push(Event{1.0, EventPriority::kControl, 0, [] {}});
  (void)q.pop();
  EXPECT_FALSE(q.erase(h));
  EXPECT_FALSE(q.update_key(h, 2.0, 1).valid());
}

// ---- hybrid spill / un-spill ------------------------------------------------

TEST(EventQueueHybrid, SpillsAndUnspillsAcrossTheHysteresisBand) {
  EventQueue q(FelConfig{FelConfig::Kind::kHybrid, 256});
  EventSeq seq = 0;
  for (int i = 0; i < 255; ++i) {
    (void)q.push(Event{static_cast<double>(i), EventPriority::kArrival, seq++,
                       [] {}});
  }
  EXPECT_FALSE(q.spilled());
  (void)q.push(
      Event{255.0, EventPriority::kArrival, seq++, [] {}});  // 256th key
  EXPECT_TRUE(q.spilled());
  // Hysteresis: draining to just above threshold/4 keeps the ladder.
  while (q.size() > 65) (void)q.pop();
  EXPECT_TRUE(q.spilled());
  (void)q.pop();  // 64 == 256/4: un-spill
  EXPECT_FALSE(q.spilled());
  q.debug_validate();
  // The events themselves are untouched by both migrations.
  SimTime prev = -1.0;
  while (!q.empty()) {
    const SimTime t = q.pop().time;
    EXPECT_GT(t, prev);
    prev = t;
  }
}

TEST(EventQueueHybrid, ForcedLadderSpillsFromTheFirstKey) {
  EventQueue q(FelConfig{FelConfig::Kind::kLadder, 8192});
  EXPECT_TRUE(q.spilled());
  (void)q.push(Event{1.0, EventPriority::kControl, 0, [] {}});
  EXPECT_TRUE(q.spilled());
  (void)q.pop();
  EXPECT_TRUE(q.spilled());  // kLadder never un-spills
}

// ---- the allocation-free steady state ---------------------------------------

TEST(LadderQueueAlloc, SteadyStatePushPopIsAllocationFree) {
  // Two identical passes (same Rng seed, same interleaving).  The first
  // takes every vector, rung, and bucket to its high-water mark; the
  // second must run entirely on recycled storage — rungs park in the
  // pool with their buckets intact, Bottom/scratch swap buffers, Top
  // keeps its capacity.
  EventQueue q(FelConfig{FelConfig::Kind::kLadder, 8192});
  const auto pass = [&q] {
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
  };
  pass();  // warm-up
  const std::uint64_t before = g_allocations.load();
  pass();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u) << "ladder steady state allocated";
}

TEST(HybridAlloc, HeapResidentSteadyStateStaysAllocationFree) {
  // Below the spill threshold the hybrid is the PR 2 heap path; the
  // original zero-allocation contract must still hold.
  EventQueue q;  // hybrid, threshold 8192
  const auto pass = [&q] {
    InlineFunction action;
    for (EventSeq s = 0; s < 1024; ++s) {
      (void)q.push(Event{static_cast<double>((s * 31) % 97),
                         EventPriority::kArrival, s, [] {}});
    }
    while (!q.empty()) (void)q.pop_into(action);
  };
  pass();
  const std::uint64_t before = g_allocations.load();
  pass();
  EXPECT_FALSE(q.spilled());
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u) << "hybrid heap-resident steady state allocated";
}

// ---- FEL backend invariance on whole federation runs ------------------------
// Both FEL structures pop in the identical (time, priority, seq) total
// order, so swapping the backing — or migrating mid-run — must leave a
// federation run bit-identical: same draw order, same FP accumulation
// order.  The hybrid runs with a tiny spill threshold so it genuinely
// rides the ladder (and crosses the spill/un-spill hysteresis) during the
// run instead of idling below the default 8192-key threshold.

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

core::FederationConfig with_fel(core::FederationConfig cfg,
                                FelConfig::Kind kind,
                                std::size_t spill_threshold) {
  cfg.fel.kind = kind;
  cfg.fel.spill_threshold = spill_threshold;
  return cfg;
}

class FelBackendModes
    : public ::testing::TestWithParam<core::SchedulingMode> {};

TEST_P(FelBackendModes, LadderAndHybridAreBitIdenticalToHeap) {
  const auto base = wan_config(GetParam());
  expect_identical(
      run_federation(with_fel(base, FelConfig::Kind::kHeap, 8192), 12),
      run_federation(with_fel(base, FelConfig::Kind::kHybrid, 64), 12));
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, FelBackendModes,
    ::testing::Values(core::SchedulingMode::kIndependent,
                      core::SchedulingMode::kFederationNoEconomy,
                      core::SchedulingMode::kEconomy,
                      core::SchedulingMode::kAuction),
    [](const auto& info) {
      std::string name = to_string(info.param);
      std::replace(name.begin(), name.end(), '+', '_');
      return name;
    });

TEST(FelBackend, ForcedLadderMatchesHeapExactly) {
  // The pure-ladder A/B column, every key on the ladder from the first:
  // the economy rank walk at 12 clusters, and the auction with batched
  // solicitation over the direct transport at 50 clusters.
  const auto pin = [](const core::FederationConfig& base, std::size_t n) {
    SCOPED_TRACE(std::string(to_string(base.mode)) + " at " +
                 std::to_string(n) + " clusters");
    expect_identical(
        run_federation(with_fel(base, FelConfig::Kind::kHeap, 8192), n),
        run_federation(with_fel(base, FelConfig::Kind::kLadder, 8192), n));
  };
  pin(wan_config(core::SchedulingMode::kEconomy), 12);
  auto batched = core::make_config(core::SchedulingMode::kAuction);
  batched.auction.batch_solicitations = true;
  batched.auction.solicit_batch_window = 300.0;
  batched.network_latency = kWanLatency;
  pin(batched, 50);
}

TEST(FelBackend, TreeCoalitionChurnPinsAcrossBackends) {
  // The hardest configuration — tree transport + coalitions + membership
  // churn — with the hybrid spilling mid-run.
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
  expect_identical(
      run_federation(with_fel(cfg, FelConfig::Kind::kHeap, 8192), 16),
      run_federation(with_fel(cfg, FelConfig::Kind::kHybrid, 64), 16));
}

}  // namespace
}  // namespace gridfed::sim
