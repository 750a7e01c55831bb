// Tests for the zero-allocation event kernel: InlineFunction small-buffer
// semantics, the 4-ary heap's deterministic (time, priority, seq) pop
// order under randomized workloads, the pop_into hot path, the
// no-heap-traffic contract for small trivially copyable captures, and
// the Federation's delivery slab (in-flight messages parked by slot, so
// a delivery event allocates nothing).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <set>
#include <utility>
#include <vector>

#include "cluster/catalog.hpp"
#include "core/experiment.hpp"
#include "core/federation.hpp"
#include "sim/check.hpp"
#include "sim/event_queue.hpp"
#include "sim/inline_function.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"

// ---- allocation counting ----------------------------------------------------
// Replacing global new/delete in this test binary lets the zero-allocation
// contract be asserted instead of assumed.  The counter only ever
// increments, so tests measure deltas around the region of interest.

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

// ---- InlineFunction ---------------------------------------------------------

TEST(InlineFunction, SmallTriviallyCopyableCapturesStoreInline) {
  struct Capture {
    void* a;
    std::uint64_t b;
    std::uint64_t c;
  };
  static_assert(InlineFunction::fits_inline<Capture>());
  static_assert(sizeof(Capture) <= InlineFunction::kInlineCapacity);
  int hits = 0;
  int* hp = &hits;
  InlineFunction f([hp] { ++*hp; });
  ASSERT_TRUE(static_cast<bool>(f));
  f();
  f();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, MoveTransfersInlineCallable) {
  int hits = 0;
  int* hp = &hits;
  InlineFunction a([hp] { ++*hp; });
  InlineFunction b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // moved-from is empty
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);

  InlineFunction c;
  EXPECT_FALSE(static_cast<bool>(c));
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InlineFunction, LargeCapturesBoxAndStillMoveCorrectly) {
  // > kInlineCapacity bytes: must take the heap-box path and survive
  // moves (the box pointer transfers, the payload stays put).
  struct Big {
    double values[8];
  };
  static_assert(!InlineFunction::fits_inline<Big>());
  Big big{};
  big.values[7] = 42.0;
  double out = 0.0;
  double* op = &out;
  InlineFunction a([big, op] { *op = big.values[7]; });
  InlineFunction b(std::move(a));
  b();
  EXPECT_DOUBLE_EQ(out, 42.0);
}

TEST(InlineFunction, NonTriviallyCopyableCapturesBoxAndDestruct) {
  // A shared_ptr capture is not trivially copyable: it must box, and
  // destruction of the InlineFunction must release the referent.
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  {
    InlineFunction f([token] { (void)*token; });
    token.reset();
    EXPECT_FALSE(watch.expired());  // the box keeps it alive
    f();
    // Move assignment over a boxed callable must destroy the old box.
    f = InlineFunction([] {});
    EXPECT_TRUE(watch.expired());
  }
}

TEST(InlineFunction, StdFunctionSourceWorks) {
  int hits = 0;
  std::function<void()> fn = [&hits] { ++hits; };
  InlineFunction f(fn);
  f();
  EXPECT_EQ(hits, 1);
}

// ---- EventQueue ordering ----------------------------------------------------

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

TEST(EventQueue, RandomizedPopOrderMatchesReferenceSort) {
  // Times drawn from a tiny set force heavy (time, priority) collisions,
  // so the FIFO-by-seq tie-break is exercised hard.
  Rng rng(2024);
  EventQueue q;
  std::vector<PopRecord> expected;
  for (EventSeq seq = 0; seq < 2000; ++seq) {
    const SimTime t = static_cast<double>(rng.uniform_int(0, 9));
    const auto prio = static_cast<EventPriority>(rng.uniform_int(0, 3));
    expected.push_back(PopRecord{t, prio, seq});
    q.push(Event{t, prio, seq, [] {}});
  }
  std::sort(expected.begin(), expected.end(), &record_before);
  for (const PopRecord& want : expected) {
    ASSERT_FALSE(q.empty());
    EXPECT_DOUBLE_EQ(q.next_time(), want.time);
    const Event got = q.pop();
    EXPECT_DOUBLE_EQ(got.time, want.time);
    EXPECT_EQ(got.priority, want.priority);
    EXPECT_EQ(got.seq, want.seq);
  }
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, InterleavedPushPopMatchesReferenceExactly) {
  // Random interleaving of pushes and pops, never scheduling into the
  // past of the last popped time (the simulation's usage pattern).  A
  // std::set over the same strict weak ordering is the executable
  // reference: every pop must hand out exactly the reference minimum.
  Rng rng(99);
  EventQueue q;
  std::set<PopRecord, decltype(&record_before)> ref(&record_before);
  SimTime now = 0.0;
  EventSeq seq = 0;
  std::size_t pops = 0;
  for (int step = 0; step < 5000; ++step) {
    const bool do_push = q.empty() || rng.uniform01() < 0.55;
    if (do_push) {
      const SimTime t = now + static_cast<double>(rng.uniform_int(0, 5));
      const auto prio = static_cast<EventPriority>(rng.uniform_int(0, 3));
      ref.insert(PopRecord{t, prio, seq});
      q.push(Event{t, prio, seq, [] {}});
      ++seq;
    } else {
      ASSERT_FALSE(ref.empty());
      const PopRecord want = *ref.begin();
      ref.erase(ref.begin());
      EXPECT_DOUBLE_EQ(q.next_time(), want.time);
      const Event ev = q.pop();
      EXPECT_DOUBLE_EQ(ev.time, want.time);
      EXPECT_EQ(ev.priority, want.priority);
      EXPECT_EQ(ev.seq, want.seq);
      now = ev.time;
      ++pops;
    }
  }
  while (!q.empty()) {
    ASSERT_FALSE(ref.empty());
    const PopRecord want = *ref.begin();
    ref.erase(ref.begin());
    const Event ev = q.pop();
    EXPECT_EQ(ev.seq, want.seq);
    ++pops;
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(pops, static_cast<std::size_t>(seq));
}

TEST(EventQueue, PopIntoReturnsTimeAndAction) {
  EventQueue q;
  int hits = 0;
  int* hp = &hits;
  q.push(Event{3.0, EventPriority::kArrival, 0, [hp] { ++*hp; }});
  InlineFunction action;
  const SimTime t = q.pop_into(action);
  EXPECT_DOUBLE_EQ(t, 3.0);
  ASSERT_TRUE(static_cast<bool>(action));
  action();
  EXPECT_EQ(hits, 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NegativeZeroTimeNormalizes) {
  EventQueue q;
  q.push(Event{-0.0, EventPriority::kControl, 0, [] {}});
  q.push(Event{1.0, EventPriority::kControl, 1, [] {}});
  EXPECT_DOUBLE_EQ(q.next_time(), 0.0);
  EXPECT_DOUBLE_EQ(q.pop().time, 0.0);  // -0.0 must not sort after 1.0
}

TEST(EventQueue, ContractViolationsThrowLoudly) {
  EventQueue q;
  EXPECT_THROW(q.push(Event{-1.0, EventPriority::kControl, 0, [] {}}),
               ContractViolation);
  EXPECT_THROW(
      q.push(Event{0.0, EventPriority::kControl, std::uint64_t{1} << 40,
                   [] {}}),
      ContractViolation);
}

TEST(EventQueue, ClearRetainsNothing) {
  EventQueue q;
  bool fired = false;
  q.push(Event{1.0, EventPriority::kControl, 0, [&fired] { fired = true; }});
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(fired);
}

// ---- the zero-allocation contract ------------------------------------------

TEST(EventKernel, SmallCapturesScheduleWithoutHeapAllocation) {
  // Captures of <= 32 trivially copyable bytes must never allocate: not
  // on push, not while sifting, not on pop.  The queue pre-reserves its
  // storage, so after a warm-up pass the steady state is allocation-free.
  EventQueue q;
  std::uint64_t sink = 0;
  std::uint64_t* sp = &sink;
  // Warm-up: let every vector reach its high-water mark.
  for (EventSeq s = 0; s < 512; ++s) {
    q.push(Event{static_cast<double>(s % 97), EventPriority::kArrival, s,
                 [sp, s] { *sp += s; }});
  }
  while (!q.empty()) (void)q.pop();

  const std::uint64_t before = g_allocations.load();
  for (EventSeq s = 0; s < 512; ++s) {
    q.push(Event{static_cast<double>((s * 31) % 97), EventPriority::kArrival,
                 s, [sp, s] { *sp += s; }});
  }
  InlineFunction action;
  while (!q.empty()) {
    (void)q.pop_into(action);
    action();
  }
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u) << "event hot path allocated";
  EXPECT_GT(sink, 0u);
}

TEST(EventKernel, SimulationDispatchIsAllocationFreeInSteadyState) {
  // With GRIDFED_TRACE compiled in (the default build) the dispatch
  // probe slot exists but is null — the runtime-disabled observability
  // state.  That state must still be allocation-free per event: the
  // probe is one predicted-not-taken branch, nothing more.
  Simulation sim;
  std::uint64_t acc = 0;
  std::uint64_t* ap = &acc;
  for (int i = 0; i < 256; ++i) {
    sim.schedule_at(static_cast<double>(i), EventPriority::kControl,
                    [ap] { ++*ap; });
  }
  sim.run();  // warm-up: queue storage at high-water mark

  const double base = sim.now();
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 256; ++i) {
    sim.schedule_at(base + static_cast<double>(i), EventPriority::kControl,
                    [ap] { ++*ap; });
  }
  sim.run();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u) << "dispatch hot path allocated";
  EXPECT_EQ(acc, 512u);
}

#if GRIDFED_TRACE
TEST(EventKernel, DispatchProbeFiresPerEventWithoutAllocating) {
  // The enabled state: a counting probe (the same shape the Federation
  // installs to feed kEventsDispatched) must fire exactly once per
  // executed event and keep the hot path allocation-free — a bare
  // function pointer call, no std::function, no capture boxing.
  Simulation sim;
  std::uint64_t probe_hits = 0;
  sim.set_dispatch_probe(
      [](void* ctx, SimTime) {
        ++*static_cast<std::uint64_t*>(ctx);
      },
      &probe_hits);

  std::uint64_t acc = 0;
  std::uint64_t* ap = &acc;
  for (int i = 0; i < 256; ++i) {
    sim.schedule_at(static_cast<double>(i), EventPriority::kControl,
                    [ap] { ++*ap; });
  }
  sim.run();  // warm-up
  EXPECT_EQ(probe_hits, 256u);

  const double base = sim.now();
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 256; ++i) {
    sim.schedule_at(base + static_cast<double>(i), EventPriority::kControl,
                    [ap] { ++*ap; });
  }
  sim.run();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u) << "probed dispatch allocated";
  EXPECT_EQ(probe_hits, 512u);
  EXPECT_EQ(probe_hits, sim.events_executed());

  // Uninstalling restores the dark path.
  sim.set_dispatch_probe(nullptr, nullptr);
  sim.schedule_at(sim.now() + 1.0, EventPriority::kControl, [ap] { ++*ap; });
  sim.run();
  EXPECT_EQ(probe_hits, 512u);
}
#endif  // GRIDFED_TRACE

// ---- the delivery slab ------------------------------------------------------

/// A small valid job of `origin`, loose enough that any cluster admits it.
cluster::Job slab_job(cluster::JobId id, cluster::ResourceIndex origin) {
  cluster::Job job;
  job.id = id;
  job.origin = origin;
  job.processors = 1;
  job.length_mi = 1e7 * static_cast<double>(id);  // outlasts the legs
  job.budget = 1e12;
  job.deadline = 1e9;
  return job;
}

TEST(DeliverySlab, UnicastDeliveryIsAllocationFreeInSteadyState) {
  // A delivery event captures only (federation, slot), so it fits the
  // InlineFunction buffer; the message waits in a recycled slab slot.
  // Stray kBids at a DBC agent are dropped on arrival, so the agent's
  // own handling adds nothing either.
  auto cfg = core::make_config(core::SchedulingMode::kEconomy);
  cfg.network_latency = 1.0;
  core::Federation fed(cfg, cluster::replicated_specs(2));
  Simulation& sim = fed.simulation();
  const auto send_and_deliver = [&](int n) {
    for (int i = 0; i < n; ++i) {
      fed.send(core::Message{core::MessageType::kBid, 0, 1,
                             slab_job(static_cast<cluster::JobId>(i + 1), 0)});
    }
    for (int i = 0; i < n; ++i) ASSERT_TRUE(sim.step());
  };
  send_and_deliver(64);  // warm-up: slab and queue at high-water mark

  const std::uint64_t events = sim.events_executed();
  const std::uint64_t before = g_allocations.load();
  send_and_deliver(64);
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u) << "sequential delivery allocated";
  EXPECT_EQ(sim.events_executed() - events, 64u);
  const core::MessageLedger& ledger = std::as_const(fed).ledger();
  EXPECT_EQ(ledger.count_of(core::MessageType::kBid), 128u);
}

TEST(DeliverySlab, MessagesPostedMidDeliveryArriveIntact) {
  // One call-for-bids carrying piggybacked awards: its delivery admits
  // every award and answers each with a kReply, plus the bid, so the
  // slab grows while the message being delivered came out of it.  Each
  // reply then drives its award's payload and completion legs, so every
  // job completing on the provider proves every message arrived intact.
  constexpr cluster::JobId kAwards = 8;
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
  cfg.network_latency = 1.0;
  core::Federation fed(cfg, cluster::replicated_specs(3));
  policy::SchedulerContext& origin = fed.gfa(0);
  core::Message call{core::MessageType::kCallForBids, 0, 1, slab_job(1, 0)};
  for (cluster::JobId id = 1; id <= kAwards; ++id) {
    core::Pending p;
    p.job = slab_job(id, 0);
    origin.park_award(std::move(p), 1);  // as a piggybacking flush does
    call.batch_awards.push_back(core::PiggybackedAward{slab_job(id, 0), 5.0});
  }
  fed.send(std::move(call));
  fed.simulation().run();

  // kAwards replies + 1 bid left the provider in the one delivery.
  const core::MessageLedger& ledger = std::as_const(fed).ledger();
  EXPECT_EQ(ledger.count_of(core::MessageType::kReply), kAwards);
  EXPECT_EQ(ledger.count_of(core::MessageType::kBid), 1u);
  ASSERT_EQ(fed.outcomes().size(), kAwards);
  std::vector<cluster::JobId> ids;
  for (const core::JobOutcome& o : fed.outcomes()) {
    EXPECT_TRUE(o.accepted);
    EXPECT_EQ(o.executed_on, 1u);
    EXPECT_DOUBLE_EQ(o.job.length_mi, slab_job(o.job.id, 0).length_mi);
    ids.push_back(o.job.id);
  }
  std::sort(ids.begin(), ids.end());
  for (cluster::JobId id = 1; id <= kAwards; ++id) EXPECT_EQ(ids[id - 1], id);
}

}  // namespace
}  // namespace gridfed::sim
