// EventQueue cold paths: clear, the register spill and the structural
// self-checks.  The push/pop hot loop is header-inline
// (event_queue_inl.hpp).

#include "sim/event_queue.hpp"

#include <algorithm>

#include "sim/check.hpp"

namespace gridfed::sim {

void EventQueue::clear() noexcept {
  ladder_.clear();
  slots_.clear();
  free_slots_.clear();
  reg_ = kNoKey;
  tail_hi_ = kNoEvent;
  tail_low_ = kNoEvent;
  chained_ = 0;
  live_ = 0;
  next_key_ = kEmptyKey;
}

void EventQueue::spill_register() { ladder_.push(reg_); }

bool EventQueue::consistent() {
  const bool reg_busy = reg_ != kNoKey;
  if (live_ != ladder_.size() + (reg_busy ? 1 : 0) + chained_) return false;
  if (live_ == 0) return next_key_ == kEmptyKey;
  if (reg_busy && slots_[fel_slot_of(reg_)].low != fel_low64(reg_)) {
    return false;
  }
  FelKey m = reg_;
  if (!ladder_.empty()) {
    if (!ladder_.min_materialized()) {
      // A fresh Top batch with no bucket sorted yet: deriving the true
      // min would force a sort the hot path deliberately defers.  The
      // cached value is maintained by the push-side min-fold; the
      // cross-check resumes at the next pop.
      return true;
    }
    m = std::min(m, ladder_.materialized_min());
  }
  return next_key_ == m;
}

void EventQueue::debug_validate() {
  ladder_.debug_validate();
  GF_ENSURES(consistent());
  std::size_t occupied = 0;
  std::size_t links = 0;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    if (s.low == kNoEvent) continue;
    ++occupied;
    GF_ENSURES((s.low & kFelSlotMask) == i);
    if (s.next == kNoSlot) continue;
    ++links;
    GF_ENSURES(s.next < slots_.size());
    const std::uint64_t succ = slots_[s.next].low;
    GF_ENSURES(succ != kNoEvent);
    GF_ENSURES((succ >> kFelSlotBits) == (s.low >> kFelSlotBits) + 1);
  }
  GF_ENSURES(occupied == live_);
  GF_ENSURES(links == chained_);
  GF_ENSURES(occupied + free_slots_.size() == slots_.size());
}

}  // namespace gridfed::sim
