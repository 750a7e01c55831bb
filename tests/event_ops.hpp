#pragma once
// Test helpers over the EventQueue's in-place API: push an action (a
// no-op by default) at a (time, priority, seq) key, and pop an event
// with its key decoded.

#include <utility>

#include "sim/event_queue.hpp"
#include "sim/fel.hpp"

namespace gridfed::sim {

/// Pushes `action`, untagged, at (t, prio, seq).
template <typename F>
void push_event(EventQueue& q, SimTime t, EventPriority prio, EventSeq seq,
                F&& action) {
  q.push(t, prio, seq).set(EventKind::kOther, std::forward<F>(action));
}

/// Pushes a no-op at (t, prio, seq).
inline void push_event(EventQueue& q, SimTime t, EventPriority prio,
                       EventSeq seq) {
  push_event(q, t, prio, seq, [] {});
}

/// One popped event: its decoded key and its record.
struct Popped {
  SimTime time = 0.0;
  EventPriority priority = EventPriority::kControl;
  EventSeq seq = 0;
  EventRecord record;
};

/// Pops the earliest event.  Precondition: !q.empty().
inline Popped pop_event(EventQueue& q) {
  Popped p;
  const FelKey key = q.pop(p.record);
  p.time = fel_time_of(key);
  p.priority = fel_priority_of(key);
  p.seq = fel_seq_of(key);
  return p;
}

}  // namespace gridfed::sim
