// EventQueue cold paths: cancellation (erase / update_key), the
// heap↔ladder migrations, and the structural self-check.  The push/pop
// hot loop is header-inline (event_queue_inl.hpp).

#include "sim/event_queue.hpp"

#include <utility>

#include "sim/check.hpp"

namespace gridfed::sim {

void EventQueue::clear() noexcept {
  heap_.clear();
  ladder_.clear();
  slots_.clear();
  free_slots_.clear();
  cancelled_.clear();
  live_ = 0;
  next_time_ = kTimeInfinity;
  spilled_ = cfg_.kind == FelConfig::Kind::kLadder;
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
    after_remove();  // wholesale clear of the all-tombstone backing
    GF_SIM_CHECK(consistent());
    return true;
  }
  if (fel_low64(active_min()) == raw) {
    // Erasing the current minimum invalidates the cached next_time():
    // remove it structurally right now so after_remove() re-derives the
    // cache from the true new minimum — never from a dead event.
    (void)active_pop();
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
  if (fel_low64(active_min()) == raw) {
    (void)active_pop();
  } else {
    cancelled_.insert(raw);
  }
  slots_[slot].low = new_raw;
  const FelKey key =
      (static_cast<FelKey>(std::bit_cast<std::uint64_t>(new_time)) << 64) |
      new_raw;
  if (spilled_) {
    ladder_.push(key);
  } else {
    heap_.push(key);
    maybe_spill();
  }
  // The event itself keeps live_ > 0, so a (possibly tombstoned) new
  // minimum can be re-derived directly.
  drop_cancelled_min();
  next_time_ = fel_time_of(active_min());
  GF_SIM_CHECK(consistent());
  return EventHandle{new_raw};
}

void EventQueue::drop_cancelled_min() {
  while (!cancelled_.empty()) {
    if (cancelled_.erase(fel_low64(active_min())) == 0) return;
    (void)active_pop();
  }
}

void EventQueue::migrate_to_ladder() {
  migrate_scratch_.clear();
  heap_.drain_into(migrate_scratch_);
  filter_cancelled(migrate_scratch_);
  ladder_.build_from(migrate_scratch_);
  spilled_ = true;
}

void EventQueue::migrate_to_heap() {
  migrate_scratch_.clear();
  ladder_.drain_into(migrate_scratch_);
  filter_cancelled(migrate_scratch_);
  heap_.build_from(migrate_scratch_);
  spilled_ = false;
}

void EventQueue::filter_cancelled(std::vector<FelKey>& keys) {
  // Migration is the natural tombstone drain: everything cancelled is in
  // the key set by definition, so the set empties wholesale.
  if (cancelled_.empty()) return;
  std::erase_if(keys, [this](FelKey k) {
    return cancelled_.contains(fel_low64(k));
  });
  cancelled_.clear();
}

bool EventQueue::consistent() {
  const std::size_t backing = spilled_ ? ladder_.size() : heap_.size();
  if (live_ + cancelled_.size() != backing) return false;
  if (live_ == 0) {
    return backing == 0 && next_time_ == kTimeInfinity;
  }
  if (spilled_ && !ladder_.min_materialized()) {
    // A fresh Top batch with no bucket sorted yet: deriving the true min
    // would force a sort the hot path deliberately defers.  The cached
    // value is maintained by the push-side min-fold; the cross-check
    // resumes at the next pop.
    return true;
  }
  const FelKey m = spilled_ ? ladder_.materialized_min() : heap_.min_key();
  if (cancelled_.contains(fel_low64(m))) return false;
  return next_time_ == fel_time_of(m);
}

void EventQueue::debug_validate() {
  if (spilled_) ladder_.debug_validate();
  GF_ENSURES(consistent());
}

}  // namespace gridfed::sim
