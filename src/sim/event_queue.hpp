#pragma once
// Future-event list: a hybrid over two backing structures that pop in
// the identical total order (see fel.hpp):
//
//   * HeapFel     — the 4-ary min-heap; O(log n) but cache-resident and
//                   unbeatable while the pending set fits L1/L2;
//   * LadderQueue — Rung/Bucket/Bottom ladder (ladder_queue.hpp); O(1)
//                   amortized independent of size, the cold-cache choice.
//
// The hybrid stays on the heap below FelConfig::spill_threshold pending
// keys and migrates to the ladder above it (un-spilling at threshold/4 —
// hysteresis, so a set oscillating around the threshold does not thrash
// O(n) migrations).  Because both structures emit the exact full-key
// order — [ time : 64 | priority : 2 | seq : 40 | slot : 22 ], where the
// IEEE bit pattern of a non-negative double orders like its value — the
// backend choice and every migration are invisible to pop order: no
// golden digest depends on which structure ran.
//
// The inline callbacks live in a stable slot-indexed side array of
// cache-line-sized records (callback + occupant identity together, so a
// dispatch touches exactly one line per slot) and never move while
// queued; the FEL structures shuffle 16-byte integers only.
// Cancellation (erase / update_key) is tombstone-based:
// the low 64 key bits (priority‖seq‖slot, unique per pending event) name
// the victim; a cancelled minimum is removed eagerly so the cached
// next_time() never reports a dead event, and deeper tombstones are
// discarded when they surface or at migration.

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "sim/event.hpp"
#include "sim/fel.hpp"
#include "sim/ladder_queue.hpp"

namespace gridfed::sim {

/// Pending-event list ordered by (time, priority, seq).
/// Deterministic: equal-time events pop in insertion order within a
/// priority class, regardless of which backing structure holds them.
///
/// Contracts (all checked, loud): event times are non-negative (the
/// simulation clock starts at 0 and never moves backwards), seq < 2^40,
/// and at most 2^22 events are pending at once — far beyond any
/// federation sweep, and a violation fails a GF_EXPECTS rather than
/// silently reordering.
class EventQueue {
 public:
  /// Names a pending event for erase()/update_key().  Default-constructed
  /// handles are invalid; a handle dies when its event pops, is erased,
  /// or is rescheduled (update_key hands back a fresh one).
  class EventHandle {
   public:
    EventHandle() = default;
    [[nodiscard]] bool valid() const noexcept { return raw_ != kNoEvent; }

   private:
    friend class EventQueue;
    static constexpr std::uint64_t kNoEvent = ~std::uint64_t{0};
    explicit EventHandle(std::uint64_t raw) noexcept : raw_(raw) {}
    std::uint64_t raw_ = kNoEvent;
  };

  EventQueue() : EventQueue(FelConfig{}) {}

  explicit EventQueue(const FelConfig& cfg) : cfg_(cfg) {
    // One queue drives a whole federation run; pre-sizing skips the
    // first rounds of growth (and InlineFunction relocation) in the hot
    // loop.
    slots_.reserve(kInitialCapacity);
    free_slots_.reserve(kInitialCapacity);
    spilled_ = cfg_.kind == FelConfig::Kind::kLadder;
  }

  /// Inserts an event.  O(log n) on the heap, O(1) amortized on the
  /// ladder; allocation-free apart from amortized storage growth (slots
  /// freed by pop()/erase() are reused).  Returns a handle for
  /// erase()/update_key(); callers that never cancel may ignore it.
  /// Defined inline below: push/pop are the innermost simulation loop.
  EventHandle push(Event ev);

  /// Removes and returns the earliest event.  Precondition: !empty().
  [[nodiscard]] Event pop();

  /// Hot-loop variant of pop(): moves the earliest event's callback into
  /// `action` and returns its timestamp, skipping the Event round-trip
  /// (the dispatch loop needs neither seq nor priority).
  /// Precondition: !empty().
  SimTime pop_into(InlineFunction& action);

  /// Cancels a pending event.  Returns false if the handle no longer
  /// names one (already popped, erased, or rescheduled).  Erasing the
  /// current minimum removes it structurally — and invalidates the
  /// cached next_time() — immediately; deeper victims leave a tombstone
  /// that is discarded when it surfaces.  The callback is destroyed and
  /// the action slot recycled either way.
  bool erase(EventHandle h);

  /// Reschedules a pending event to `new_time`, keeping its callback and
  /// priority class.  `new_seq` must be a fresh sequence number (the
  /// Simulation's monotone counter) so the total key order stays unique.
  /// Returns the event's new handle, or an invalid handle if `h` no
  /// longer names a pending event.
  EventHandle update_key(EventHandle h, SimTime new_time, EventSeq new_seq);

  /// Timestamp of the earliest event (cached; no structure access).
  /// Precondition: !empty().
  [[nodiscard]] SimTime next_time() const noexcept { return next_time_; }

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  /// Number of pending (non-cancelled) events.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Drops all pending events (storage capacity is retained).
  void clear() noexcept;

  // ---- introspection (tests, benches) -------------------------------------

  [[nodiscard]] const FelConfig& fel_config() const noexcept { return cfg_; }
  /// True while the ladder is the active backing structure.
  [[nodiscard]] bool spilled() const noexcept { return spilled_; }

  /// Always-compiled structural self-check: cached next_time() matches
  /// the structural minimum, the minimum is never a tombstone, and live
  /// + cancelled bookkeeping covers the backing structure exactly.
  /// GF_SIM_CHECK runs it after every mutating op in debug builds;
  /// Release test binaries call it explicitly.  Throws ContractViolation.
  void debug_validate();

 private:
  static constexpr std::size_t kInitialCapacity = 4096;
  /// How many upcoming pops after_remove prefetches slot records for
  /// when the ladder's sorted Bottom run makes them exactly known (~4
  /// dispatches ≈ one DRAM miss latency of lead time).
  static constexpr std::size_t kPrefetchDepth = 4;

  [[nodiscard]] FelKey active_min() {
    return spilled_ ? ladder_.min_key() : heap_.min_key();
  }
  [[nodiscard]] FelKey active_pop() {
    return spilled_ ? ladder_.pop_min() : heap_.pop_min();
  }

  /// Shared body of pop()/pop_into(): pops the minimum, moves its
  /// callback into `action`, recycles the slot, and returns the full
  /// 128-bit key so callers decode time/priority/seq without a second
  /// min query.
  FelKey pop_key(InlineFunction& action);

  /// Re-establishes the cached-min invariant after a structural removal:
  /// pops tombstoned minima, un-spills across the hysteresis floor, and
  /// refreshes next_time_.  live_ must already be decremented.
  void after_remove();
  /// Pops cancelled keys off the structural min.  Precondition: live_ > 0.
  void drop_cancelled_min();
  void maybe_spill();
  void maybe_unspill();
  void migrate_to_ladder();
  void migrate_to_heap();
  /// Drops tombstoned keys from a drained key set; empties cancelled_.
  void filter_cancelled(std::vector<FelKey>& keys);
  [[nodiscard]] bool consistent();

  FelConfig cfg_;
  HeapFel heap_;
  LadderQueue ladder_;
  bool spilled_ = false;  ///< which structure is active

  /// One action slot: the parked callback plus the low-64 key bits of
  /// the occupant (EventHandle::kNoEvent when free — validates handles
  /// across slot reuse).  Cache-line aligned: slots are read in key
  /// order, i.e. randomly, so keeping everything a dispatch needs on one
  /// line halves the misses of split side arrays and lets after_remove's
  /// single prefetch cover the whole next pop.
  struct alignas(64) Slot {
    InlineFunction action;
    std::uint64_t low = EventHandle::kNoEvent;
  };

  std::vector<Slot> slots_;                ///< slot-indexed, stable
  std::vector<std::uint32_t> free_slots_;  ///< recycled action slots

  /// Low-64 identities of cancelled keys still inside the backing
  /// structure.  The structural minimum is never in here.
  std::unordered_set<std::uint64_t> cancelled_;
  std::size_t live_ = 0;               ///< pending minus cancelled
  SimTime next_time_ = kTimeInfinity;  ///< time of the structural min
  std::vector<FelKey> migrate_scratch_;
};

}  // namespace gridfed::sim

#include "sim/event_queue_inl.hpp"  // IWYU pragma: keep
