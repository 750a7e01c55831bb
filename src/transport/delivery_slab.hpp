#pragma once
// The delivery slab: where a message waits between its send and its
// delivery.  A payload is parked once, however many deliveries it
// takes: park() moves it into a slot, the poster reads and edits it in
// place through parked() and schedules each delivery with post(), whose
// event carries only the slot and the destination — every delivery
// stamps its own `to` on the parked body before handing it over.  A
// multicast to 97 providers is one body and 97 (slot, target) events,
// not 97 message copies.
//
// A slot counts its holds: the poster's, from park() until release(),
// and one per posted delivery until that delivery returns.  The last
// hold to drop frees the slot, so a payload nobody posted to (every
// target lost) frees at release(), and one with deliveries in flight
// frees after the last of them.  Freeing drops the body's arena handle
// and keeps its kBid buffer for bid_buffer().
//
// Slots live in fixed chunks that never move, so a slot's address
// survives growth: a delivery hands the agent the parked message itself,
// and the messages its delivery posts take other slots (appending a
// chunk when every slot is busy).  std::deque is no substitute: it keeps
// just two 216-byte messages per node and pays for its index arithmetic
// on every access.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/message.hpp"
#include "sim/simulation.hpp"

namespace gridfed::transport {

class TransportContext;

class DeliverySlab {
 public:
  /// Delivers into `ctx` (TransportContext::deliver), on ctx.sim().
  explicit DeliverySlab(TransportContext& ctx);
  DeliverySlab(const DeliverySlab&) = delete;
  DeliverySlab& operator=(const DeliverySlab&) = delete;

  /// Moves `msg` into a free slot, held by the poster until release().
  [[nodiscard]] std::uint32_t park(core::Message&& msg) {
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = grow();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    Entry& e = entry(slot);
    e.holds = 1;
    e.msg = std::move(msg);
    return slot;
  }

  /// The body parked in `slot` (stable until the slot frees).
  [[nodiscard]] core::Message& parked(std::uint32_t slot) {
    return entry(slot).msg;
  }

  /// Schedules a delivery of the body in `slot` to `to`, `delay`
  /// seconds from now.
  void post(std::uint32_t slot, cluster::ResourceIndex to,
            sim::SimTime delay) {
    ++entry(slot).holds;
    sim_.schedule_in(delay, sim::EventPriority::kMessage,
                     [this, slot, to] { deliver(slot, to); });
  }

  /// Drops one hold on `slot` (the poster's, when it is done posting);
  /// the last hold frees the slot.
  void release(std::uint32_t slot) {
    if (--entry(slot).holds == 0) recycle(slot);
  }

  /// A cleared batch_bids buffer of a delivered (or lost) kBid answer,
  /// so a provider's batched answer reuses its capacity instead of
  /// allocating; empty when none is spare.  The spares never outnumber
  /// the peak number of kBid answers in flight (a duplicated answer
  /// shares its body).
  [[nodiscard]] std::vector<core::BatchedBid> bid_buffer();

  /// Payloads parked and not yet freed (0 once the run has drained).
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return slots_ - free_slots_.size();
  }

 private:
  struct Entry {
    std::uint32_t holds = 0;  ///< first: on the line of the header fields
    core::Message msg;
  };
  static constexpr std::uint32_t kChunk = 256;

  [[nodiscard]] Entry& entry(std::uint32_t slot) {
    return chunks_[slot / kChunk][slot % kChunk];
  }
  /// A never-used slot (appending a chunk when the last one is full).
  std::uint32_t grow();
  /// One delivery: stamps `to`, hands the body over, drops its hold.
  void deliver(std::uint32_t slot, cluster::ResourceIndex to);
  /// Frees `slot`: its arena handle goes, its kBid buffer is kept.
  void recycle(std::uint32_t slot);

  TransportContext& ctx_;
  sim::Simulation& sim_;
  std::vector<std::unique_ptr<Entry[]>> chunks_;
  std::uint32_t slots_ = 0;  ///< slots ever handed out
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::vector<core::BatchedBid>> spare_bids_;
};

}  // namespace gridfed::transport
