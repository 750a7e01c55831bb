#pragma once
// Future-event list: pending events ordered by their packed 128-bit key
// [ time : 64 | priority : 2 | seq : 40 | slot : 22 ] (fel.hpp), where
// the IEEE bit pattern of a non-negative double orders like its value,
// held in a LadderQueue (ladder_queue.hpp): O(1) amortized push/pop
// independent of the pending-set size, in storage that follows the live
// keys.  A federation run streams its job arrivals in one event at a
// time, so the pending set is the events in flight plus one arrival: a
// few thousand keys at 100 clusters, not the whole trace.
//
// The event records (sim/event.hpp) live in a stable slot-indexed side
// array of cache-line-sized slots (record + occupant identity + run link
// together, so a dispatch touches exactly one line per slot) and never
// move while queued; the ladder shuffles 16-byte integers only.  push()
// hands out the slot's record and the caller constructs the event's
// closure in it, so an event is written once, where it will be
// dispatched from; pop() copies the record out once.
//
// Same-instant runs.  A multicast schedules one delivery per target
// back to back: events of one (time, priority) with consecutive seqs,
// between which (the Simulation's seqs being unique) no other event can
// sort.  So the ladder holds one key per *run* — its head — and every
// later member hangs off its predecessor's slot link.  A push
// joins the previous push's run when it has the same time and priority,
// the next seq, and that previous event is still pending.  When a
// member with a successor pops, the successor's key moves into a
// one-key register; every pop takes the smaller of the register and
// the ladder's minimum, so each event still pops on its own, in exact
// (time, priority, seq) order.  A head that pops while the register is
// busy sorts before the register's whole run (its run holds no seq of
// the register's), so the register's key spills back into the ladder
// and the head's successor takes its place.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event.hpp"
#include "sim/fel.hpp"
#include "sim/ladder_queue.hpp"

namespace gridfed::sim {

/// Pending-event list ordered by (time, priority, seq).
/// Deterministic: equal-time events pop in insertion order within a
/// priority class.
///
/// Contracts (all checked, loud): event times are non-negative (the
/// simulation clock starts at 0 and never moves backwards), seq < 2^40,
/// and at most 2^22 events are pending at once — far beyond any
/// federation sweep, and a violation fails a GF_EXPECTS rather than
/// silently reordering.
class EventQueue {
 public:
  EventQueue() {
    // One queue drives a whole federation run; pre-sizing skips the
    // first rounds of growth (and slot relocation) in the hot loop.
    slots_.reserve(kInitialCapacity);
    free_slots_.reserve(kInitialCapacity);
  }

  /// Inserts an event at (time, prio, seq) and returns its slot's
  /// record, which the caller fills with EventRecord::set before the
  /// next queue operation.  O(1) amortized; allocation-free apart from
  /// amortized storage growth (slots freed by pop() are reused).
  /// Defined inline below: push/pop are the innermost simulation loop.
  [[nodiscard]] EventRecord& push(SimTime time, EventPriority prio,
                                  EventSeq seq);

  /// Removes the earliest event: copies its record into `out` and
  /// returns its key (fel_time_of / fel_priority_of / fel_seq_of decode
  /// it).  Precondition: !empty().
  FelKey pop(EventRecord& out);

  /// Timestamp of the earliest event (cached; no structure access);
  /// +infinity when empty.
  [[nodiscard]] SimTime next_time() const noexcept {
    return fel_time_of(next_key_);
  }

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  /// Number of pending events.
  [[nodiscard]] std::size_t size() const noexcept { return live_; }
  /// Pending events that ride behind another member of their run: in
  /// neither the ladder nor the register (tests check runs form).
  [[nodiscard]] std::size_t chained() const noexcept { return chained_; }

  /// Drops all pending events (storage capacity is retained).
  void clear() noexcept;

  /// Always-compiled structural self-check: the ladder's own invariants
  /// hold, every run link joins two pending events of one priority with
  /// consecutive seqs, the links count the chained members exactly, and
  /// consistent() holds.  Release test binaries call it explicitly.
  /// Throws ContractViolation.
  void debug_validate();

 private:
  static constexpr std::size_t kInitialCapacity = 4096;
  /// How many upcoming pops after_remove prefetches slot records for
  /// when the ladder's sorted Bottom run makes them exactly known (~4
  /// dispatches ≈ one DRAM miss latency of lead time).
  static constexpr std::size_t kPrefetchDepth = 4;
  /// Slot::low of a free slot (no valid key has all low bits set).
  static constexpr std::uint64_t kNoEvent = ~std::uint64_t{0};
  /// The end of a run (Slot::next).
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};
  /// The empty register: all-ones is a negative NaN's bit pattern, so
  /// it sorts after every valid key.
  static constexpr FelKey kNoKey = ~FelKey{0};
  /// next_key_ of an empty queue: time +infinity, after every valid key.
  static constexpr FelKey kEmptyKey =
      (static_cast<FelKey>(std::bit_cast<std::uint64_t>(kTimeInfinity))
       << 64) |
      ~std::uint64_t{0};

  /// Pushes the register's key back into the ladder.  Out of line, so
  /// the ladder's push stays inlined into push() alone.
  void spill_register();
  /// Refreshes next_key_ after a pop and prefetches the slots of the
  /// next pops.  live_ must already be decremented.
  void after_remove();
  /// O(1) cross-check of the cached state: live_ is the ladder's keys
  /// plus the register plus the chained members, the register names a
  /// pending event, and next_key_ is the true minimum.
  /// GF_SIM_CHECK runs it after every push and pop in debug builds.
  [[nodiscard]] bool consistent();

  LadderQueue ladder_;

  /// One event slot: the event's record, the low-64 key bits of the
  /// occupant (kNoEvent when free) and the slot of the next member of
  /// its run.  Cache-line aligned: slots are read in key order, i.e.
  /// randomly, so keeping everything a dispatch needs on one line halves
  /// the misses of split side arrays and lets after_remove's prefetch
  /// cover the whole next pop.
  struct alignas(64) Slot {
    EventRecord record;
    std::uint64_t low = kNoEvent;
    std::uint32_t next = kNoSlot;
  };
  static_assert(sizeof(Slot) == 64, "a slot must stay one cache line");

  std::vector<Slot> slots_;                ///< slot-indexed, stable
  std::vector<std::uint32_t> free_slots_;  ///< recycled event slots

  /// The next member of the run being drained (kNoKey when none).
  FelKey reg_ = kNoKey;
  /// The last push: its time bits and low key bits (kNoEvent before the
  /// first push); the next push may join its run.
  std::uint64_t tail_hi_ = kNoEvent;
  std::uint64_t tail_low_ = kNoEvent;
  std::size_t chained_ = 0;      ///< pending members behind a link
  std::size_t live_ = 0;         ///< pending events
  FelKey next_key_ = kEmptyKey;  ///< the earliest event's key
};

}  // namespace gridfed::sim

#include "sim/event_queue_inl.hpp"  // IWYU pragma: keep
