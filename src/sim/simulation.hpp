#pragma once
// The discrete-event simulation engine.  This is gridfed's stand-in for the
// GridSim toolkit the paper built on: a single-threaded, deterministic
// event loop with a virtual clock.  All federation entities (clusters,
// GFAs, user populations, the directory) are driven by this engine.

#include <cstdint>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/inline_function.hpp"
#include "sim/types.hpp"

// Compile-time observability gate (mirrored in obs/observer.hpp so the
// kernel stays independent of the obs layer).  Default ON; build with
// -DGRIDFED_TRACE=0 to compile the dispatch probe out entirely.
#ifndef GRIDFED_TRACE
#define GRIDFED_TRACE 1
#endif

namespace gridfed::sim {

/// The closure type the engine schedules.  Small trivially copyable
/// captures (`this` + a couple of ids) are stored inline — no heap
/// allocation per event; see inline_function.hpp.
using EventAction = InlineFunction;

/// Deterministic discrete-event simulation engine.
///
/// Usage:
/// ```
/// Simulation sim;
/// sim.schedule_at(10.0, EventPriority::kArrival, [&]{ ... });
/// sim.run();                      // until the event list drains
/// ```
/// The clock never moves backwards; scheduling into the past is a contract
/// violation.  Events at equal timestamps run in (priority, FIFO) order —
/// see EventPriority for why completions precede arrivals.
class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current value of the virtual clock (simulated seconds).
  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `action` at absolute time `t` (>= now()).
  void schedule_at(SimTime t, EventPriority prio, EventAction action);

  /// Schedules `action` after a delay (>= 0) from now().
  void schedule_in(SimTime delay, EventPriority prio, EventAction action);

  /// Runs until the event list is empty.  Returns the final clock value.
  SimTime run();

  /// Runs until the event list is empty or the clock would pass `horizon`.
  /// Events stamped exactly at `horizon` still execute.  Returns the final
  /// clock value (== horizon if stopped by it).
  SimTime run_until(SimTime horizon);

  /// Executes at most one pending event.  Returns false if none remain.
  bool step();

#if GRIDFED_TRACE
  /// Dispatch probe: a bare function pointer invoked once per executed
  /// event, after the clock advances and before the action runs.  The
  /// kernel stays ignorant of the observability layer — the Federation
  /// installs a shim that forwards to its metrics registry.  A null
  /// probe (the default) costs one predicted-not-taken branch per event
  /// and allocates nothing; the no-alloc contract in
  /// tests/test_event_kernel.cpp covers both states.
  using DispatchProbe = void (*)(void* ctx, SimTime t);
  void set_dispatch_probe(DispatchProbe probe, void* ctx) noexcept {
    probe_ = probe;
    probe_ctx_ = ctx;
  }
#endif

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
#if GRIDFED_TRACE
  DispatchProbe probe_ = nullptr;
  void* probe_ctx_ = nullptr;
#endif
};

}  // namespace gridfed::sim
