// Tests for the zero-allocation event kernel: the in-place event
// records (each closure constructed in its slot, copied out once to
// run), the ladder FEL's deterministic (time, priority, seq) pop order
// under randomized workloads, the no-heap-traffic contract of the
// dispatch loop, per-kind dispatch accounting, and the transport's
// delivery slab (each message composed once, in the slot it is
// delivered from, every payload field reset; one body per payload
// however many deliveries it has, delivered in place, so a warm
// compose → send → deliver allocates nothing, nor does a batched
// call-for-bids and its answer once their slots carried such payloads),
// and the protocol engine's job tables (a warm enquiry round trip
// allocates nothing, the LRMS's finish records included; a warm batched
// auction allocates only each job's award ranking).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "cluster/catalog.hpp"
#include "core/experiment.hpp"
#include "core/federation.hpp"
#include "sim/check.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"

#include "alloc_counter.hpp"
#include "event_ops.hpp"

namespace gridfed::sim {
namespace {

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
    push_event(q, t, prio, seq);
  }
  std::sort(expected.begin(), expected.end(), &record_before);
  for (const PopRecord& want : expected) {
    ASSERT_FALSE(q.empty());
    EXPECT_DOUBLE_EQ(q.next_time(), want.time);
    const Popped got = pop_event(q);
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
      push_event(q, t, prio, seq);
      ++seq;
    } else {
      ASSERT_FALSE(ref.empty());
      const PopRecord want = *ref.begin();
      ref.erase(ref.begin());
      EXPECT_DOUBLE_EQ(q.next_time(), want.time);
      const Popped ev = pop_event(q);
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
    const Popped ev = pop_event(q);
    EXPECT_EQ(ev.seq, want.seq);
    ++pops;
  }
  EXPECT_TRUE(ref.empty());
  EXPECT_EQ(pops, static_cast<std::size_t>(seq));
}

TEST(EventQueue, PopCopiesOutTheRecordAndReturnsItsKey) {
  // The closure is constructed in the slot push() hands out, with its
  // kind; pop() copies the record out, so it runs after its slot was
  // recycled by a later push.
  EventQueue q;
  int hits = 0;
  int* hp = &hits;
  q.push(3.0, EventPriority::kArrival, 7)
      .set(EventKind::kArrival, [hp] { ++*hp; });
  EventRecord record;
  const FelKey key = q.pop(record);
  EXPECT_DOUBLE_EQ(fel_time_of(key), 3.0);
  EXPECT_EQ(fel_priority_of(key), EventPriority::kArrival);
  EXPECT_EQ(fel_seq_of(key), 7u);
  EXPECT_EQ(record.kind, EventKind::kArrival);
  EXPECT_TRUE(q.empty());
  push_event(q, 4.0, EventPriority::kArrival, 8);  // reuses the slot
  record();
  EXPECT_EQ(hits, 1);
}

TEST(EventRecord, CapturesUpToThirtyTwoBytesStoreInPlace) {
  // `this` plus three ids fill the capture; the record stays one
  // trivially copyable 48-byte value, so copying it out is a memcpy.
  struct Capture {
    std::uint64_t* out;
    std::uint64_t a;
    std::uint64_t b;
    std::uint32_t c;
  };
  static_assert(sizeof(Capture) <= EventRecord::kCaptureBytes);
  static_assert(sizeof(EventRecord) == 48);
  std::uint64_t sum = 0;
  const Capture cap{&sum, 1, 2, 3};
  EventRecord record;
  record.set(EventKind::kHoldTimeout,
             [cap] { *cap.out += cap.a + cap.b + cap.c; });
  EventRecord copy = record;
  EXPECT_EQ(copy.kind, EventKind::kHoldTimeout);
  copy();
  copy();
  EXPECT_EQ(sum, 12u);
}

TEST(EventQueue, NegativeZeroTimeNormalizes) {
  EventQueue q;
  push_event(q, -0.0, EventPriority::kControl, 0);
  push_event(q, 1.0, EventPriority::kControl, 1);
  EXPECT_DOUBLE_EQ(q.next_time(), 0.0);
  EXPECT_DOUBLE_EQ(pop_event(q).time, 0.0);  // -0.0 must not sort after 1.0
}

TEST(EventQueue, ContractViolationsThrowLoudly) {
  EventQueue q;
  EXPECT_THROW(push_event(q, -1.0, EventPriority::kControl, 0),
               ContractViolation);
  EXPECT_THROW(
      push_event(q, 0.0, EventPriority::kControl, std::uint64_t{1} << 40),
      ContractViolation);
}

TEST(EventQueue, ClearRetainsNothing) {
  EventQueue q;
  bool fired = false;
  push_event(q, 1.0, EventPriority::kControl, 0, [&fired] { fired = true; });
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_FALSE(fired);
}

// ---- the zero-allocation contract ------------------------------------------

TEST(EventKernel, SmallCapturesScheduleWithoutHeapAllocation) {
  // Event captures (<= 32 trivially copyable bytes) never allocate: not
  // on push, not in the ladder, not on pop.  The queue pre-reserves its
  // storage, so after a warm-up pass the steady state is allocation-free.
  EventQueue q;
  std::uint64_t sink = 0;
  std::uint64_t* sp = &sink;
  // Warm-up: let every vector reach its high-water mark.
  for (EventSeq s = 0; s < 512; ++s) {
    push_event(q, static_cast<double>(s % 97), EventPriority::kArrival, s,
               [sp, s] { *sp += s; });
  }
  while (!q.empty()) (void)pop_event(q);

  const std::uint64_t before = g_allocations.load();
  for (EventSeq s = 0; s < 512; ++s) {
    push_event(q, static_cast<double>((s * 31) % 97),
               EventPriority::kArrival, s, [sp, s] { *sp += s; });
  }
  while (!q.empty()) pop_event(q).record();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u) << "event hot path allocated";
  EXPECT_GT(sink, 0u);
}

TEST(EventKernel, SimulationDispatchIsAllocationFreeInSteadyState) {
  // The dispatch probe slot exists but is null — the runtime-disabled
  // observability state.  That state must still be allocation-free per
  // event: the probe is one predicted-not-taken branch, nothing more.
  Simulation sim;
  std::uint64_t acc = 0;
  std::uint64_t* ap = &acc;
  for (int i = 0; i < 256; ++i) {
    sim.schedule_at(static_cast<double>(i), EventKind::kOther,
                    [ap] { ++*ap; });
  }
  sim.run();  // warm-up: queue storage at high-water mark

  const double base = sim.now();
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 256; ++i) {
    sim.schedule_at(base + static_cast<double>(i), EventKind::kOther,
                    [ap] { ++*ap; });
  }
  sim.run();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u) << "dispatch hot path allocated";
  EXPECT_EQ(acc, 512u);
}

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
    sim.schedule_at(static_cast<double>(i), EventKind::kOther,
                    [ap] { ++*ap; });
  }
  sim.run();  // warm-up
  EXPECT_EQ(probe_hits, 256u);

  const double base = sim.now();
  const std::uint64_t before = g_allocations.load();
  for (int i = 0; i < 256; ++i) {
    sim.schedule_at(base + static_cast<double>(i), EventKind::kOther,
                    [ap] { ++*ap; });
  }
  sim.run();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u) << "probed dispatch allocated";
  EXPECT_EQ(probe_hits, 512u);
  EXPECT_EQ(probe_hits, sim.events_executed());

  // Uninstalling restores the dark path.
  sim.set_dispatch_probe(nullptr, nullptr);
  sim.schedule_at(sim.now() + 1.0, EventKind::kOther, [ap] { ++*ap; });
  sim.run();
  EXPECT_EQ(probe_hits, 512u);
}

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
  // A message is composed in a recycled slab slot and waits there; its
  // delivery event captures only (slab, slot, destination).  Stray kBids
  // at a DBC agent are dropped on arrival, so the agent's own handling
  // adds nothing either.
  auto cfg = core::make_config(core::SchedulingMode::kEconomy);
  cfg.network_latency = 1.0;
  core::Federation fed(cfg, cluster::replicated_specs(2));
  Simulation& sim = fed.simulation();
  const auto send_and_deliver = [&](int n) {
    for (int i = 0; i < n; ++i) {
      fed.send(fed.compose(core::MessageType::kBid, 0, 1,
                           slab_job(static_cast<cluster::JobId>(i + 1), 0)));
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

TEST(DeliverySlab, ComposeResetsEveryFieldOfARecycledSlot) {
  // A fully populated payload frees its slot (a multicast to nobody);
  // the next compose reuses that slot and must reset every field, so no
  // payload of the old message leaks into the new one: its job list,
  // asks and digest come back empty, their capacity kept.  A warm
  // compose → send → deliver of the recycled slot then allocates
  // nothing.
  auto cfg = core::make_config(core::SchedulingMode::kEconomy);
  cfg.network_latency = 1.0;
  core::Federation fed(cfg, cluster::replicated_specs(2));
  Simulation& sim = fed.simulation();

  const core::Outgoing full =
      fed.compose(core::MessageType::kBid, 0, 1, slab_job(3, 0));
  full->accept = true;
  full->completion_estimate = 5.0;
  full->start_time = 6.0;
  full->price = 7.0;
  full->exec_site = 1;
  full->batch_jobs.push_back(slab_job(1, 0));
  full->batch_jobs.push_back(slab_job(2, 0));
  full->batch_bids.push_back(core::BatchedBid{1, 2.0, 3.0, true, true});
  full->gossip.push_back(membership::GossipRecord{});
  full->via_overlay = true;
  full->bid_pruned = true;
  const std::uint32_t slot = full.slot();
  EXPECT_EQ(fed.multicast(full, {}, sim.now()), 0u);
  EXPECT_EQ(fed.transport().in_flight(), 0u);

  const cluster::Job job = slab_job(4, 1);
  const core::Outgoing reply =
      fed.compose(core::MessageType::kReply, 1, 0, job);
  ASSERT_EQ(reply.slot(), slot);  // the free list hands the slot back
  const core::Message& m = *reply;
  EXPECT_EQ(m.type, core::MessageType::kReply);
  EXPECT_EQ(m.from, 1u);
  EXPECT_EQ(m.to, 0u);
  EXPECT_EQ(m.job.id, job.id);
  EXPECT_EQ(m.job.origin, job.origin);
  EXPECT_DOUBLE_EQ(m.job.length_mi, job.length_mi);
  EXPECT_FALSE(m.accept);
  EXPECT_EQ(m.completion_estimate, 0.0);
  EXPECT_EQ(m.start_time, 0.0);
  EXPECT_EQ(m.price, 0.0);
  EXPECT_EQ(m.exec_site, cluster::kNoResource);
  EXPECT_TRUE(m.batch_jobs.empty());
  EXPECT_TRUE(m.batch_bids.empty());
  EXPECT_TRUE(m.gossip.empty());
  EXPECT_GE(m.batch_jobs.capacity(), 2u);
  EXPECT_GE(m.batch_bids.capacity(), 1u);
  EXPECT_GE(m.gossip.capacity(), 1u);
  EXPECT_FALSE(m.via_overlay);
  EXPECT_FALSE(m.bid_pruned);
  // A stale reply: no enquiry of cluster 0 awaits it.
  fed.send(reply);
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(fed.transport().in_flight(), 0u);

  const std::uint64_t before = g_allocations.load();
  const core::Outgoing warm =
      fed.compose(core::MessageType::kReply, 1, 0, job);
  EXPECT_EQ(warm.slot(), slot);
  fed.send(warm);
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(g_allocations.load() - before, 0u)
      << "warm compose, send and delivery allocated";
  EXPECT_EQ(fed.transport().in_flight(), 0u);
}

TEST(DeliverySlab, NestedCompositionsHoldDistinctSlots) {
  // A sender may compose a second message before sending the first (a
  // delivery composes while its own body is held): each takes its own
  // slot, and both arrive intact.
  auto cfg = core::make_config(core::SchedulingMode::kEconomy);
  cfg.network_latency = 1.0;
  core::Federation fed(cfg, cluster::replicated_specs(3));
  Simulation& sim = fed.simulation();
  const core::Outgoing outer =
      fed.compose(core::MessageType::kBid, 0, 1, slab_job(1, 0));
  outer->price = 11.0;
  const core::Outgoing inner =
      fed.compose(core::MessageType::kBid, 0, 2, slab_job(2, 0));
  inner->price = 22.0;
  EXPECT_NE(outer.slot(), inner.slot());
  EXPECT_NE(&*outer, &*inner);
  EXPECT_EQ(fed.transport().in_flight(), 2u);
  EXPECT_EQ(outer->job.id, 1u);
  EXPECT_EQ(outer->price, 11.0);
  EXPECT_EQ(inner->job.id, 2u);
  EXPECT_EQ(inner->to, 2u);
  fed.send(inner);
  fed.send(outer);
  EXPECT_EQ(fed.transport().in_flight(), 2u);  // both await delivery
  ASSERT_TRUE(sim.step());
  ASSERT_TRUE(sim.step());
  EXPECT_EQ(fed.transport().in_flight(), 0u);
  const core::MessageLedger& ledger = std::as_const(fed).ledger();
  EXPECT_EQ(ledger.count_of(core::MessageType::kBid), 2u);
}

TEST(DeliverySlab, MulticastParksOneBodyForEveryTarget) {
  // One payload, seven deliveries: the body waits in one slot until the
  // last delivery returns, and each delivery stamps its own destination
  // on it (Gfa::receive checks msg.to).  Stray kBids at a DBC agent are
  // dropped on arrival.  A multicast to nobody frees its slot at once.
  auto cfg = core::make_config(core::SchedulingMode::kEconomy);
  cfg.network_latency = 1.0;
  core::Federation fed(cfg, cluster::replicated_specs(8));
  Simulation& sim = fed.simulation();
  const std::vector<cluster::ResourceIndex> targets{1, 2, 3, 4, 5, 6, 7};
  // The window-end utilization snapshot stays pending throughout.
  const std::size_t timers = sim.pending_events();
  const auto round = [&](cluster::JobId id) {
    EXPECT_EQ(fed.multicast(
                  fed.compose(core::MessageType::kBid, 0, 0, slab_job(id, 0)),
                  targets, sim.now()),
              targets.size());
    EXPECT_EQ(fed.transport().in_flight(), 1u);
    EXPECT_EQ(sim.pending_events(), timers + targets.size());
    for (std::size_t i = 0; i + 1 < targets.size(); ++i) {
      ASSERT_TRUE(sim.step());
      EXPECT_EQ(fed.transport().in_flight(), 1u);
    }
    ASSERT_TRUE(sim.step());
    EXPECT_EQ(fed.transport().in_flight(), 0u);
  };
  round(1);  // warm-up: slab and queue at high-water mark

  const std::uint64_t before = g_allocations.load();
  round(2);
  EXPECT_EQ(g_allocations.load() - before, 0u) << "multicast allocated";
  const core::MessageLedger& ledger = std::as_const(fed).ledger();
  EXPECT_EQ(ledger.count_of(core::MessageType::kBid), 2 * targets.size());

  EXPECT_EQ(fed.multicast(
                fed.compose(core::MessageType::kBid, 0, 0, slab_job(3, 0)),
                {}, sim.now()),
            0u);
  EXPECT_EQ(fed.transport().in_flight(), 0u);
  EXPECT_EQ(sim.pending_events(), timers);
}

TEST(DeliverySlab, BatchedBidAnswersAreAllocationFreeInSteadyState) {
  // Cluster 0 sends batched call-for-bids, each composing its job list
  // in its own slot, and cluster 1 answers each with one kBid whose asks
  // fill that answer's slot.  The answers reach cluster 0 as stale (no
  // book is open there) and are dropped.  The free list hands a slot
  // that carried a call in one round an answer in the next, so after
  // two warm-up rounds the slab, every slot's job list and asks, and the
  // queue are at their high-water mark, and a round allocates nothing.
  constexpr std::uint64_t kCalls = 16;
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
  cfg.network_latency = 1.0;
  core::Federation fed(cfg, cluster::replicated_specs(2));
  Simulation& sim = fed.simulation();
  const std::vector<cluster::Job> jobs{slab_job(1, 0), slab_job(2, 0),
                                       slab_job(3, 0)};
  const auto round = [&] {
    for (std::uint64_t i = 0; i < kCalls; ++i) {
      const core::Outgoing call =
          fed.compose(core::MessageType::kCallForBids, 0, 1, jobs.front());
      call->batch_jobs.assign(jobs.begin(), jobs.end());
      fed.send(call);
    }
    // Every call arrives one latency later, every answer one after that.
    for (std::uint64_t i = 0; i < 2 * kCalls; ++i) ASSERT_TRUE(sim.step());
  };
  round();  // warm-up: the slab's slots
  round();  // warm-up: each slot's other buffer

  const std::uint64_t events = sim.events_executed();
  const std::uint64_t before = g_allocations.load();
  round();
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u) << "batched bid answers allocated";
  EXPECT_EQ(sim.events_executed() - events, 2 * kCalls);
  const core::MessageLedger& ledger = std::as_const(fed).ledger();
  EXPECT_EQ(ledger.count_of(core::MessageType::kCallForBids), 3 * kCalls);
  EXPECT_EQ(ledger.count_of(core::MessageType::kBid), 3 * kCalls);
}

TEST(EngineTables, EnquiryRoundTripsAllocateNothing) {
  // Cluster 0 parks kEnquiries negotiates on cluster 1 (pending_), which
  // reserves and holds each (holds_) and replies; each accepted reply
  // resumes in handle_reply (pending_ out, awaiting_ in, payload out).
  // Every round reuses the same job shapes and drains completely, so
  // after a warm-up round the engine's job tables, the slab, the queue
  // and the LRMS's finish records are at their high-water mark: no
  // phase allocates.  The finish event carries only its record's slot;
  // a capture of the Job would not fit an event record.  Node-based
  // tables would add one node per insert to each phase.
  constexpr std::uint64_t kEnquiries = 32;
  auto cfg = core::make_config(core::SchedulingMode::kEconomy);
  cfg.network_latency = 1.0;
  core::Federation fed(cfg, cluster::replicated_specs(2));
  Simulation& sim = fed.simulation();
  policy::SchedulerContext& origin = fed.gfa(0);
  const cluster::Lrms& provider = fed.lrms(1);
  cluster::JobId next_id = 1;
  struct Allocations {
    std::uint64_t park = 0;
    std::uint64_t admit = 0;
    std::uint64_t reply = 0;
  };
  const auto round = [&] {
    Allocations a;
    const SimTime t = sim.now();
    std::uint64_t before = g_allocations.load();
    for (std::uint64_t i = 0; i < kEnquiries; ++i) {
      core::Pending p;
      p.job = slab_job(next_id++, 0);
      p.job.length_mi = 1e7 * static_cast<double>(i + 1);
      origin.send_negotiate(std::move(p), 1);
    }
    a.park = g_allocations.load() - before;
    before = g_allocations.load();
    sim.run_until(t + 1.5);  // negotiates land at t + 1: admit and hold
    a.admit = g_allocations.load() - before;
    before = g_allocations.load();
    sim.run_until(t + 2.5);  // replies land at t + 2: ship the payloads
    a.reply = g_allocations.load() - before;
    sim.run();  // payloads, executions and completions drain the tables
    return a;
  };
  (void)round();  // warm-up

  const std::uint64_t accepted = provider.jobs_accepted();
  const Allocations a = round();
  EXPECT_EQ(provider.jobs_accepted() - accepted, kEnquiries);
  EXPECT_EQ(a.park, 0u) << "parking enquiries allocated";
  EXPECT_EQ(a.admit, 0u) << "admission and holds allocated";
  EXPECT_EQ(a.reply, 0u) << "reply handling allocated";
  ASSERT_EQ(fed.outcomes().size(), 2 * kEnquiries);
  for (const core::JobOutcome& o : fed.outcomes()) {
    EXPECT_TRUE(o.accepted);
    EXPECT_EQ(o.executed_on, 1u);
  }
}

TEST(EngineTables, WarmBatchedAuctionsAllocateOnlyTheirRankings) {
  // Cluster 0 opens kJobs auctions at one instant, with clusters 1 and 2
  // as the bidders.  The books share one solicitation flush: one batched
  // call-for-bids to both providers, its job list written into its slab
  // slot, and one batched answer from each, the second of which clears
  // every book and posts the awards; the awards' replies ship the
  // payloads.  Every round reuses the same job shapes and drains
  // completely.  The free list hands a slot one kind of payload in one
  // round and another in the next, so it takes a few rounds before
  // every slot has carried each payload it will carry; from then on the
  // books, the solicitation queue, the slots' buffers, the engine's
  // tables and the event list are at their high-water mark.  From the
  // submissions to the shipped payloads, a job's one allocation is then
  // its award ranking's heap, which dies with its Pending: its auction
  // state is plain data in the Pending, and its call-for-bids owns no
  // storage beyond its slot.
  constexpr std::uint64_t kJobs = 16;
  constexpr int kMaxWarmRounds = 8;
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
  cfg.network_latency = 1.0;
  cfg.auction.origin_bids = false;
  cfg.auction.batch_solicitations = true;
  core::Federation fed(cfg, cluster::replicated_specs(3));
  Simulation& sim = fed.simulation();
  core::Gfa& origin = fed.gfa(0);
  cluster::JobId next_id = 1;
  const auto round = [&] {
    const SimTime t = sim.now();
    const std::uint64_t before = g_allocations.load();
    for (std::uint64_t i = 0; i < kJobs; ++i) {
      cluster::Job job = slab_job(next_id++, 0);
      job.length_mi = 1e7 * static_cast<double>(i + 1);
      job.submit = t;
      origin.submit_local(job);
    }
    // Calls land at t + 1, answers at t + 2 (clear, award), awards at
    // t + 3 (admit, reply), replies at t + 4 (ship the payloads).
    sim.run_until(t + 4.5);
    const std::uint64_t allocations = g_allocations.load() - before;
    sim.run();  // payloads, executions and completions drain the tables
    return allocations;
  };
  int rounds = 1;
  while (round() != kJobs) {
    ASSERT_LT(rounds++, kMaxWarmRounds)
        << "warm rounds still allocate beyond the rankings";
  }

  // Settled, and it stays so.
  const core::MessageLedger& ledger = std::as_const(fed).ledger();
  const std::uint64_t calls = ledger.count_of(core::MessageType::kCallForBids);
  const std::uint64_t bids = ledger.count_of(core::MessageType::kBid);
  EXPECT_EQ(round(), kJobs) << "allocations other than the rankings";
  EXPECT_EQ(round(), kJobs) << "allocations other than the rankings";
  EXPECT_EQ(ledger.count_of(core::MessageType::kCallForBids) - calls, 4u);
  EXPECT_EQ(ledger.count_of(core::MessageType::kBid) - bids, 4u);
  ASSERT_EQ(fed.outcomes().size(), (rounds + 2) * kJobs);
  for (const core::JobOutcome& o : fed.outcomes()) {
    EXPECT_TRUE(o.accepted);
    EXPECT_NE(o.executed_on, 0u);
  }
}

TEST(DeliverySlab, MessagesPostedMidDeliveryArriveIntact) {
  // Cluster 0 opens kJobs auctions at one instant, with cluster 1 as the
  // only bidder.  They share one solicitation flush, so cluster 1
  // answers with one kBid of kJobs asks, and that single delivery
  // completes every book and posts kJobs kAwards: the slab grows while
  // the message being delivered is read in place.  Each award then
  // drives its reply, payload and completion legs, so every job
  // completing on the provider proves every message arrived intact.
  // The second input posts more awards than one slab chunk holds, so
  // that delivery also appends a chunk.
  for (const cluster::JobId kJobs : {cluster::JobId{8}, cluster::JobId{300}}) {
    SCOPED_TRACE(kJobs);
    auto cfg = core::make_config(core::SchedulingMode::kAuction);
    cfg.network_latency = 1.0;
    cfg.auction.origin_bids = false;
    cfg.auction.batch_solicitations = true;
    core::Federation fed(cfg, cluster::replicated_specs(2));
    for (cluster::JobId id = 1; id <= kJobs; ++id) {
      fed.gfa(0).submit_local(slab_job(id, 0));
    }
    fed.simulation().run();

    // One call, one answer, and kJobs awards posted by its delivery.
    const core::MessageLedger& ledger = std::as_const(fed).ledger();
    EXPECT_EQ(ledger.count_of(core::MessageType::kCallForBids), 1u);
    EXPECT_EQ(ledger.count_of(core::MessageType::kBid), 1u);
    EXPECT_EQ(ledger.count_of(core::MessageType::kAward), kJobs);
    EXPECT_EQ(ledger.count_of(core::MessageType::kReply), kJobs);
    ASSERT_EQ(fed.outcomes().size(), kJobs);
    std::vector<cluster::JobId> ids;
    for (const core::JobOutcome& o : fed.outcomes()) {
      EXPECT_TRUE(o.accepted);
      EXPECT_EQ(o.executed_on, 1u);
      EXPECT_DOUBLE_EQ(o.job.length_mi, slab_job(o.job.id, 0).length_mi);
      ids.push_back(o.job.id);
    }
    std::sort(ids.begin(), ids.end());
    for (cluster::JobId id = 1; id <= kJobs; ++id) {
      EXPECT_EQ(ids[id - 1], id);
    }
  }
}

}  // namespace
}  // namespace gridfed::sim
