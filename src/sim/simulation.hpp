#pragma once
// The discrete-event simulation engine.  This is gridfed's stand-in for the
// GridSim toolkit the paper built on: a single-threaded, deterministic
// event loop with a virtual clock.  All federation entities (clusters,
// GFAs, user populations, the directory) are driven by this engine.
//
// Scheduling writes each event once: schedule_at/schedule_in are header
// templates that take a future-event list slot and construct the
// event's kind-tagged record (sim/event.hpp) — a trivially copyable
// closure of at most 32 bytes — directly in it.  There is no boxed or
// type-erased intermediate, and a capture that does not fit fails to
// compile.  step() copies the earliest record out once and runs it.

#include <cstdint>
#include <utility>

#include "sim/check.hpp"
#include "sim/event_queue.hpp"
#include "sim/types.hpp"

namespace gridfed::sim {

/// Deterministic discrete-event simulation engine.
///
/// Usage:
/// ```
/// Simulation sim;
/// sim.schedule_at(10.0, EventKind::kOther, [&x] { ++x; });
/// sim.run();                      // until the event list drains
/// ```
/// The clock never moves backwards; scheduling into the past is a contract
/// violation.  Events at equal timestamps run in (priority, FIFO) order,
/// the priority being their kind's (priority_of) — see EventPriority for
/// why completions precede arrivals.
class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current value of the virtual clock (simulated seconds).
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `action`, an event of `kind`, at absolute time `t`
  /// (>= now()).  The action must be a trivially copyable void()
  /// callable of at most EventRecord::kCaptureBytes.
  template <typename F>
  void schedule_at(SimTime t, EventKind kind, F&& action) {
    GF_EXPECTS(t >= now_);
    queue_.push(t, priority_of(kind), next_seq_++)
        .set(kind, std::forward<F>(action));
  }

  /// Schedules `action`, an event of `kind`, after a delay (>= 0) from
  /// now().
  template <typename F>
  void schedule_in(SimTime delay, EventKind kind, F&& action) {
    GF_EXPECTS(delay >= 0.0);
    schedule_at(now_ + delay, kind, std::forward<F>(action));
  }

  /// Runs until the event list is empty.  Returns the final clock value.
  SimTime run();

  /// Runs until the event list is empty or the clock would pass `horizon`.
  /// Events stamped exactly at `horizon` still execute.  Returns the final
  /// clock value (== horizon if stopped by it).
  SimTime run_until(SimTime horizon);

  /// Executes at most one pending event.  Returns false if none remain.
  bool step() {
    if (queue_.empty()) return false;
    // The record is copied to the stack before it runs: an action that
    // schedules new events may grow the slot array under its slot.
    EventRecord event;
    const SimTime t = fel_time_of(queue_.pop(event));
    GF_ENSURES(t >= now_);
    now_ = t;
    current_kind_ = event.kind;
    ++executed_;
    if (probe_ != nullptr) probe_(probe_ctx_, t);
    event();
    return true;
  }

  /// Dispatch probe: a bare function pointer invoked once per executed
  /// event, after the clock advances and before the action runs; it
  /// reads the event's kind from current_kind().  The kernel stays
  /// ignorant of the observability layer — the Federation installs a
  /// shim that forwards to its metrics registry when ObsConfig::metrics
  /// is on.  A null probe (the default) costs one predicted-not-taken
  /// branch per event and allocates nothing; the no-alloc contract in
  /// tests/test_event_kernel.cpp covers both states.
  using DispatchProbe = void (*)(void* ctx, SimTime t);
  void set_dispatch_probe(DispatchProbe probe, void* ctx) noexcept {
    probe_ = probe;
    probe_ctx_ = ctx;
  }

  /// Kind of the event being dispatched (or the last one dispatched).
  [[nodiscard]] EventKind current_kind() const noexcept {
    return current_kind_;
  }

  /// Number of events executed so far (across all run*/step calls).
  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return executed_;
  }

  /// Number of events currently pending.
  [[nodiscard]] std::size_t pending_events() const noexcept {
    return queue_.size();
  }

  /// Discards all pending events (the clock is left where it is).
  void drain() noexcept { queue_.clear(); }

 private:
  EventQueue queue_;
  SimTime now_ = 0.0;
  EventSeq next_seq_ = 0;
  std::uint64_t executed_ = 0;
  EventKind current_kind_ = EventKind::kOther;
  DispatchProbe probe_ = nullptr;
  void* probe_ctx_ = nullptr;
};

}  // namespace gridfed::sim
