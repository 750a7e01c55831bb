#pragma once
// Inline definitions of the EventQueue hot path (see event_queue.hpp for
// the design).  push/pop are the innermost loop of every simulation run;
// keeping them header-inline lets the Simulation's schedule templates
// construct each closure straight into the slot push() returns, and lets
// a caller that only reads the popped time never decode priority/seq.

#include <algorithm>

#include "sim/check.hpp"
#include "sim/event_queue.hpp"

namespace gridfed::sim {

inline EventRecord& EventQueue::push(SimTime time, EventPriority prio,
                                     EventSeq seq) {
  // The IEEE-bits-as-integer ordering trick needs a non-negative time
  // (which also rejects NaN).  -0.0 would bit-sort above every positive
  // value, so normalize it to +0.0.
  GF_EXPECTS(time >= 0.0);
  if (time == 0.0) time = 0.0;
  GF_EXPECTS(seq < (std::uint64_t{1} << kFelSeqBits));
  // The pack reserves 2 bits for the priority; a grown enum must not
  // silently truncate into a different ordering class.
  static_assert(static_cast<int>(EventPriority::kControl) < 4,
                "EventPriority no longer fits the 2-bit key field");

  const auto hi = std::bit_cast<std::uint64_t>(time);
  const std::uint64_t order =
      (static_cast<std::uint64_t>(prio) << kFelSeqBits) | seq;
  // Same time, same priority, the next seq, and the previous push still
  // pending (its slot still holds it): this event joins that run.  The
  // sentinels before the first push fail the first two tests.
  const auto tail_slot = static_cast<std::uint32_t>(tail_low_ & kFelSlotMask);
  const bool joins = hi == tail_hi_ &&
                     order == (tail_low_ >> kFelSlotBits) + 1 &&
                     slots_[tail_slot].low == tail_low_;

  // The event lives in a stable slot; at most the 16-byte key enters
  // the ladder.
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  GF_EXPECTS(slot < (std::uint32_t{1} << kFelSlotBits));

  const std::uint64_t low = (order << kFelSlotBits) | slot;
  Slot& s = slots_[slot];
  s.low = low;
  s.next = kNoSlot;
  if (joins) {
    // Sorts right after a pending event: never the new minimum.
    slots_[tail_slot].next = slot;
    ++chained_;
  } else {
    const FelKey key = (static_cast<FelKey>(hi) << 64) | low;
    ladder_.push(key);
    // The cached minimum folds in with one compare — no min_key() call,
    // which keeps pushes O(1) (min_key may sort a bucket).
    if (key < next_key_) next_key_ = key;
  }
  tail_hi_ = hi;
  tail_low_ = low;
  ++live_;
  GF_SIM_CHECK(consistent());
  return s.record;
}

inline FelKey EventQueue::pop(EventRecord& out) {
  GF_EXPECTS(live_ > 0);
  const FelKey top = next_key_;
  if (top == reg_) {
    reg_ = kNoKey;
  } else {
    [[maybe_unused]] const FelKey popped = ladder_.pop_min();
    GF_SIM_CHECK(popped == top);
  }
  const std::uint32_t slot = fel_slot_of(top);
  Slot& s = slots_[slot];
  if (s.next != kNoSlot) {
    // The run goes on: its next member (same time and priority, the next
    // seq) takes the register.  A busy register holds a run that sorts
    // wholly after this one, so it waits in the ladder meanwhile.
    if (reg_ != kNoKey) spill_register();
    const std::uint64_t next_low =
        (((fel_low64(top) >> kFelSlotBits) + 1) << kFelSlotBits) | s.next;
    reg_ = ((top >> 64) << 64) | next_low;
    --chained_;
  }
  out = s.record;
  s.low = kNoEvent;
  free_slots_.push_back(slot);
  --live_;
  after_remove();
  GF_SIM_CHECK(consistent());
  return top;
}

inline void EventQueue::after_remove() {
  if (live_ == 0) {
    ladder_.clear();  // already empty: resets its floors for a fresh start
    next_key_ = kEmptyKey;
    return;
  }
  // The next dispatch will copy the next slot's record out; its line is
  // a likely miss on large pending sets (slots are read in key order,
  // i.e. randomly).  Start the fetch now so it overlaps the caller's
  // work between pops: the register's slot, and as many of the ladder's
  // next pops as Bottom's sorted run names exactly, deep enough to
  // cover a full miss latency.  Repeat prefetches of a line already in
  // flight are near-free.
  FelKey next = reg_;
  if (reg_ != kNoKey) __builtin_prefetch(&slots_[fel_slot_of(reg_)], 1);
  if (!ladder_.empty()) {
    const FelKey m = ladder_.min_key();
    if (m < next) next = m;
    const std::size_t depth =
        std::min<std::size_t>(ladder_.materialized_run(), kPrefetchDepth);
    for (std::size_t i = 0; i < depth; ++i) {
      __builtin_prefetch(&slots_[fel_slot_of(ladder_.materialized_at(i))], 1);
    }
  }
  next_key_ = next;
}

}  // namespace gridfed::sim
