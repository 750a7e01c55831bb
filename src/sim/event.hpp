#pragma once
// Discrete events.  gridfed uses a callback-event kernel: every pending
// event is an EventRecord, a small trivially copyable closure constructed
// in place in the future-event list slot it will be dispatched from, and
// tagged with the event's kind.  The kernel gives the kind no meaning of
// its own: it decides the event's ordering class (priority_of) and lets
// the dispatch probe account per kind.

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/types.hpp"

namespace gridfed::sim {

/// Scheduling priority for events that share a timestamp.  Lower enum value
/// runs first.  Completions run before arrivals at the same instant so that
/// freed processors are visible to a job arriving "at the same time" —
/// matching GridSim's space-shared semantics.
enum class EventPriority : int {
  kCompletion = 0,  ///< job starts and finishes, processors granted/released
  kMessage = 1,     ///< inter-GFA message delivery
  kArrival = 2,     ///< job arrival / submission
  kControl = 3,     ///< bookkeeping (timeouts, flushes, periodic sampling)
};

/// What an event does: the simulator's event classes, one per schedule
/// site family.  A message delivery's kind names its message type: the
/// kDeliveryKinds kinds from kDelivery on follow core::MessageType's
/// order (core/message.hpp asserts the count).
enum class EventKind : std::uint8_t {
  kOther = 0,          ///< untagged (tests and tools)
  kArrival,            ///< the next loaded job's submission
  kLrmsStart,          ///< a reservation starts: processors granted
  kLrmsFinish,         ///< a reservation finishes: processors released
  kNegotiateTimeout,   ///< an enquiry's reply deadline
  kHoldTimeout,        ///< a provider hold's payload deadline
  kBidTimeout,         ///< an auction book's bid deadline
  kSolicitFlush,       ///< a batched call-for-bids flush wake-up
  kFanoutFlush,        ///< a tree fan-out epoch wake-up
  kConvergecastFlush,  ///< a tree convergecast flush
  kGossipRound,        ///< a membership anti-entropy round
  kChurn,              ///< a scripted join, leave or crash
  kPeriodic,  ///< periodic bookkeeping: snapshots, hints, samples, prices
  kDelivery,  ///< the first of kDeliveryKinds message-delivery kinds
};

/// Message-delivery kinds: one per message type.
inline constexpr std::size_t kDeliveryKinds = 8;
inline constexpr std::size_t kEventKindCount =
    static_cast<std::size_t>(EventKind::kDelivery) + kDeliveryKinds;

/// The delivery kind of message type number `type` (< kDeliveryKinds).
[[nodiscard]] constexpr EventKind delivery_kind(std::size_t type) noexcept {
  return static_cast<EventKind>(static_cast<std::size_t>(EventKind::kDelivery) +
                                type);
}

/// The ordering class every event of `kind` runs in at its instant.
[[nodiscard]] constexpr EventPriority priority_of(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kLrmsStart:
    case EventKind::kLrmsFinish:
      return EventPriority::kCompletion;
    case EventKind::kArrival:
      return EventPriority::kArrival;
    default:
      return kind >= EventKind::kDelivery ? EventPriority::kMessage
                                          : EventPriority::kControl;
  }
}

/// Name of a non-delivery kind ("delivery" for every delivery kind; the
/// metrics layer names those by their message type).
[[nodiscard]] constexpr const char* to_string(EventKind kind) noexcept {
  switch (kind) {
    case EventKind::kOther: return "other";
    case EventKind::kArrival: return "arrival";
    case EventKind::kLrmsStart: return "lrms_start";
    case EventKind::kLrmsFinish: return "lrms_finish";
    case EventKind::kNegotiateTimeout: return "negotiate_timeout";
    case EventKind::kHoldTimeout: return "hold_timeout";
    case EventKind::kBidTimeout: return "bid_timeout";
    case EventKind::kSolicitFlush: return "solicit_flush";
    case EventKind::kFanoutFlush: return "fanout_flush";
    case EventKind::kConvergecastFlush: return "convergecast_flush";
    case EventKind::kGossipRound: return "gossip_round";
    case EventKind::kChurn: return "churn";
    case EventKind::kPeriodic: return "periodic";
    default: return "delivery";
  }
}

/// One pending event's action: a trivially copyable closure of at most
/// kCaptureBytes (`this` plus a few ids), the function that invokes it,
/// and the event's kind.  set() constructs the closure in place, so a
/// schedule site writes its capture once, straight into the slot; the
/// dispatch loop copies the record out once before running it.  There
/// is no heap path: a capture that does not fit is a compile error.
struct EventRecord {
  static constexpr std::size_t kCaptureBytes = 32;

  /// Stores `f` as this record's action, tagged `k`.
  template <typename F>
  void set(EventKind k, F&& f) {
    using D = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, D&>,
                  "an event action is a void() callable");
    static_assert(std::is_trivially_copyable_v<D>,
                  "an event capture must be trivially copyable: capture "
                  "`this` and ids, keep payloads in a table");
    static_assert(sizeof(D) <= kCaptureBytes,
                  "an event capture must fit EventRecord::kCaptureBytes");
    static_assert(alignof(D) <= alignof(std::uint64_t),
                  "an event capture must be at most 8-byte aligned");
    ::new (static_cast<void*>(capture)) D(std::forward<F>(f));
    invoke = [](void* p) { (*std::launder(reinterpret_cast<D*>(p)))(); };
    kind = k;
  }

  /// Runs the action.
  void operator()() { invoke(capture); }

  alignas(std::uint64_t) unsigned char capture[kCaptureBytes];
  void (*invoke)(void*);
  EventKind kind;
};
static_assert(std::is_trivially_copyable_v<EventRecord>);

}  // namespace gridfed::sim
