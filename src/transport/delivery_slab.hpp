#pragma once
// The delivery slab: where a message is built and where it waits between
// its send and its delivery.  A message is written once: compose() takes
// a free slot and resets its payload in place, the sender fills it
// through the returned core::Outgoing handle, and the transport posts
// each delivery with post(), whose event carries only the slot and the
// destination — every delivery stamps its own `to` on the body before
// handing it over.  A multicast to 97 providers is one body and 97
// (slot, target) events, not 97 message copies, and no message is ever
// built on a stack and copied in.
//
// A slot counts its holds: the composer's, from compose() until the
// transport release()s it (a tree queue keeps that hold until its
// flush), and one per posted delivery until that delivery returns.  The
// last hold to drop frees the slot, so a payload nobody posted to (every
// target lost) frees at release(), and one with deliveries in flight
// frees after the last of them.
//
// A slot owns its body's variable-length payloads (a batched
// call-for-bids' job list, a batched answer's asks, a gossip digest):
// compose() empties them in place, so each keeps the capacity of the
// largest payload its slot has carried and a warm slot fills them
// without allocating.
//
// Slots live in a sim::Slab, whose chunks never move, so a slot's
// address survives growth: a delivery hands the agent the slot's message
// itself, and the messages its delivery composes take other slots
// (appending a chunk when every slot is busy).

#include <cstddef>
#include <cstdint>

#include "core/message.hpp"
#include "sim/simulation.hpp"
#include "sim/slab.hpp"

namespace gridfed::transport {

class TransportContext;

class DeliverySlab {
 public:
  /// Delivers into `ctx` (TransportContext::deliver), on ctx.sim().
  explicit DeliverySlab(TransportContext& ctx);
  DeliverySlab(const DeliverySlab&) = delete;
  DeliverySlab& operator=(const DeliverySlab&) = delete;

  /// A free slot holding Message{type, from, to, job} with every other
  /// payload field reset (its buffers emptied, capacity kept), held by
  /// the composer until release().
  [[nodiscard]] core::Outgoing compose(core::MessageType type,
                                       cluster::ResourceIndex from,
                                       cluster::ResourceIndex to,
                                       const cluster::Job& job) {
    const std::uint32_t slot = entries_.take();
    Entry& e = entries_[slot];
    e.holds = 1;
    core::Message& m = e.msg;
    // Every field of core::Message, in declaration order.
    m.type = type;
    m.from = from;
    m.to = to;
    m.job = job;
    m.accept = false;
    m.completion_estimate = 0.0;
    m.start_time = 0.0;
    m.price = 0.0;
    m.exec_site = cluster::kNoResource;
    m.batch_jobs.clear();
    m.batch_bids.clear();
    m.gossip.clear();
    m.via_overlay = false;
    m.bid_pruned = false;
    return core::Outgoing(m, slot);
  }

  /// The body in `slot` (stable until the slot frees).
  [[nodiscard]] core::Message& parked(std::uint32_t slot) {
    return entries_[slot].msg;
  }

  /// Schedules a delivery of the body in `slot` to `to`, `delay`
  /// seconds from now; the event's kind names the message type.
  void post(std::uint32_t slot, cluster::ResourceIndex to,
            sim::SimTime delay) {
    Entry& e = entries_[slot];
    ++e.holds;
    sim_.schedule_in(delay,
                     sim::delivery_kind(static_cast<std::size_t>(e.msg.type)),
                     [this, slot, to] { deliver(slot, to); });
  }

  /// Drops one hold on `slot` (the composer's, when the transport is
  /// done posting); the last hold frees the slot.
  void release(std::uint32_t slot) {
    if (--entries_[slot].holds == 0) entries_.free(slot);
  }

  /// Messages composed and not yet freed (0 once the run has drained).
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return entries_.in_use();
  }

 private:
  struct Entry {
    std::uint32_t holds = 0;  ///< first: on the line of the header fields
    core::Message msg;
  };

  /// One delivery: stamps `to`, hands the body over, drops its hold.
  void deliver(std::uint32_t slot, cluster::ResourceIndex to);

  TransportContext& ctx_;
  sim::Simulation& sim_;
  sim::Slab<Entry, 256> entries_;
};

}  // namespace gridfed::transport
