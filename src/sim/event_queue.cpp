// EventQueue cold paths: cancellation (erase / update_key) and the
// structural self-check.  The push/pop hot loop is header-inline
// (event_queue_inl.hpp).

#include "sim/event_queue.hpp"

#include <utility>

#include "sim/check.hpp"

namespace gridfed::sim {

void EventQueue::clear() noexcept {
  ladder_.clear();
  slots_.clear();
  free_slots_.clear();
  cancelled_.clear();
  live_ = 0;
  next_time_ = kTimeInfinity;
}

bool EventQueue::erase(EventHandle h) {
  const std::uint64_t raw = h.raw_;
  if (raw == EventHandle::kNoEvent) return false;
  const auto slot = static_cast<std::uint32_t>(raw & kFelSlotMask);
  if (slot >= slots_.size() || slots_[slot].low != raw) {
    return false;  // already popped, erased, or rescheduled
  }
  slots_[slot].low = EventHandle::kNoEvent;
  slots_[slot].action = InlineFunction{};  // destroy the callback eagerly
  free_slots_.push_back(slot);
  --live_;
  if (live_ == 0) {
    after_remove();  // wholesale clear of the all-tombstone ladder
    GF_SIM_CHECK(consistent());
    return true;
  }
  if (fel_low64(ladder_.min_key()) == raw) {
    // Erasing the current minimum invalidates the cached next_time():
    // remove it structurally right now so after_remove() re-derives the
    // cache from the true new minimum — never from a dead event.
    (void)ladder_.pop_min();
  } else {
    cancelled_.insert(raw);
  }
  after_remove();
  GF_SIM_CHECK(consistent());
  return true;
}

EventQueue::EventHandle EventQueue::update_key(EventHandle h,
                                               SimTime new_time,
                                               EventSeq new_seq) {
  const std::uint64_t raw = h.raw_;
  if (raw == EventHandle::kNoEvent) return EventHandle{};
  const auto slot = static_cast<std::uint32_t>(raw & kFelSlotMask);
  if (slot >= slots_.size() || slots_[slot].low != raw) {
    return EventHandle{};
  }
  GF_EXPECTS(new_time >= 0.0);
  if (new_time == 0.0) new_time = 0.0;
  GF_EXPECTS(new_seq < (std::uint64_t{1} << kFelSeqBits));

  // Same slot (the callback never moves), same priority class, fresh
  // seq: the old key is cancelled and a rebuilt key re-enters.
  const std::uint64_t prio = raw >> (kFelSeqBits + kFelSlotBits);
  const std::uint64_t new_raw = (prio << (kFelSeqBits + kFelSlotBits)) |
                                (new_seq << kFelSlotBits) | slot;
  if (fel_low64(ladder_.min_key()) == raw) {
    (void)ladder_.pop_min();
  } else {
    cancelled_.insert(raw);
  }
  slots_[slot].low = new_raw;
  ladder_.push(
      (static_cast<FelKey>(std::bit_cast<std::uint64_t>(new_time)) << 64) |
      new_raw);
  // The event itself keeps live_ > 0, so a (possibly tombstoned) new
  // minimum can be re-derived directly.
  drop_cancelled_min();
  next_time_ = fel_time_of(ladder_.min_key());
  GF_SIM_CHECK(consistent());
  return EventHandle{new_raw};
}

void EventQueue::drop_cancelled_min() {
  while (!cancelled_.empty()) {
    if (cancelled_.erase(fel_low64(ladder_.min_key())) == 0) return;
    (void)ladder_.pop_min();
  }
}

bool EventQueue::consistent() {
  const std::size_t backing = ladder_.size();
  if (live_ + cancelled_.size() != backing) return false;
  if (live_ == 0) {
    return backing == 0 && next_time_ == kTimeInfinity;
  }
  if (!ladder_.min_materialized()) {
    // A fresh Top batch with no bucket sorted yet: deriving the true min
    // would force a sort the hot path deliberately defers.  The cached
    // value is maintained by the push-side min-fold; the cross-check
    // resumes at the next pop.
    return true;
  }
  const FelKey m = ladder_.materialized_min();
  if (cancelled_.contains(fel_low64(m))) return false;
  return next_time_ == fel_time_of(m);
}

void EventQueue::debug_validate() {
  ladder_.debug_validate();
  GF_ENSURES(consistent());
}

}  // namespace gridfed::sim
