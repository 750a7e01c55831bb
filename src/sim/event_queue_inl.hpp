#pragma once
// Inline definitions of the EventQueue hot path (see event_queue.hpp for
// the design).  push/pop are the innermost loop of every simulation run;
// keeping them header-inline lets callers fold the Event round-trip away
// (e.g. a caller that only reads the popped time never materializes the
// decoded priority/seq).

#include <algorithm>
#include <utility>

#include "sim/check.hpp"
#include "sim/event_queue.hpp"

namespace gridfed::sim {

inline EventQueue::EventHandle EventQueue::push(Event ev) {
  // The IEEE-bits-as-integer ordering trick needs a non-negative time
  // (which also rejects NaN).  -0.0 would bit-sort above every positive
  // value, so normalize it to +0.0.
  GF_EXPECTS(ev.time >= 0.0);
  if (ev.time == 0.0) ev.time = 0.0;
  GF_EXPECTS(ev.seq < (std::uint64_t{1} << kFelSeqBits));
  // The pack reserves 2 bits for the priority; a grown enum must not
  // silently truncate into a different ordering class.
  static_assert(static_cast<int>(EventPriority::kControl) < 4,
                "EventPriority no longer fits the 2-bit key field");

  // Park the callback in a stable slot; only the 16-byte key enters the
  // ladder.
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  GF_EXPECTS(slot < (std::uint32_t{1} << kFelSlotBits));

  const std::uint64_t low =
      (static_cast<std::uint64_t>(ev.priority) << (kFelSeqBits + kFelSlotBits)) |
      (ev.seq << kFelSlotBits) | slot;
  Slot& s = slots_[slot];
  s.action = std::move(ev.action);
  s.low = low;
  const FelKey key =
      (static_cast<FelKey>(std::bit_cast<std::uint64_t>(ev.time)) << 64) | low;

  ladder_.push(key);
  ++live_;
  // The structural min is live (tombstoned minima are removed eagerly),
  // so the cached time folds in with one compare — no min_key() call,
  // which keeps pushes O(1) (min_key may sort a bucket).
  if (ev.time < next_time_) next_time_ = ev.time;
  GF_SIM_CHECK(consistent());
  return EventHandle{low};
}

inline FelKey EventQueue::pop_key(InlineFunction& action) {
  const FelKey top = ladder_.pop_min();
  const std::uint32_t slot = fel_slot_of(top);
  Slot& s = slots_[slot];
  action = std::move(s.action);
  s.low = EventHandle::kNoEvent;
  free_slots_.push_back(slot);
  --live_;
  after_remove();
  GF_SIM_CHECK(consistent());
  return top;
}

inline SimTime EventQueue::pop_into(InlineFunction& action) {
  GF_EXPECTS(live_ > 0);
  return fel_time_of(pop_key(action));
}

inline Event EventQueue::pop() {
  GF_EXPECTS(live_ > 0);
  constexpr std::uint64_t kSeqMask = (std::uint64_t{1} << kFelSeqBits) - 1;
  Event ev;
  const FelKey top = pop_key(ev.action);
  const auto low = fel_low64(top);
  ev.seq = (low >> kFelSlotBits) & kSeqMask;
  ev.priority =
      static_cast<EventPriority>(low >> (kFelSeqBits + kFelSlotBits));
  ev.time = fel_time_of(top);
  return ev;
}

inline void EventQueue::after_remove() {
  if (live_ == 0) {
    // Only tombstones (if anything) remain: drop them wholesale.
    ladder_.clear();
    cancelled_.clear();
    next_time_ = kTimeInfinity;
    return;
  }
  if (!cancelled_.empty()) drop_cancelled_min();
  const FelKey next = ladder_.min_key();
  next_time_ = fel_time_of(next);
  // The next dispatch will move this slot's record out; its line is a
  // guaranteed miss on large pending sets (slots are read in key order,
  // i.e. randomly).  Start the fetch now so it overlaps the caller's
  // work between pops.  Bottom's sorted run names the next several pops
  // exactly — not just the next one — so fetch deep enough to cover a
  // full miss latency; repeat prefetches of a line already in flight
  // are near-free.
  __builtin_prefetch(&slots_[fel_slot_of(next)], 1);
  const std::size_t depth =
      std::min<std::size_t>(ladder_.materialized_run(), kPrefetchDepth);
  for (std::size_t i = 1; i < depth; ++i) {
    __builtin_prefetch(&slots_[fel_slot_of(ladder_.materialized_at(i))], 1);
  }
}

}  // namespace gridfed::sim
