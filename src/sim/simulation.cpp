#include "sim/simulation.hpp"

#include "sim/check.hpp"

namespace gridfed::sim {

void Simulation::schedule_at(SimTime t, EventPriority prio,
                             EventAction action) {
  GF_EXPECTS(t >= now_);
  GF_EXPECTS(static_cast<bool>(action));
  queue_.push(Event{t, prio, next_seq_++, std::move(action)});
}

void Simulation::schedule_in(SimTime delay, EventPriority prio,
                             EventAction action) {
  GF_EXPECTS(delay >= 0.0);
  schedule_at(now_ + delay, prio, std::move(action));
}

bool Simulation::step() {
  if (queue_.empty()) return false;
  // The callback is moved to the stack before it runs: an action that
  // schedules new events must not be able to invalidate itself.
  EventAction action;
  const SimTime t = queue_.pop_into(action);
  GF_ENSURES(t >= now_);
  now_ = t;
  ++executed_;
  if (probe_ != nullptr) probe_(probe_ctx_, t);
  action();
  return true;
}

SimTime Simulation::run() {
  while (step()) {
  }
  return now_;
}

SimTime Simulation::run_until(SimTime horizon) {
  GF_EXPECTS(horizon >= now_);
  while (!queue_.empty() && queue_.next_time() <= horizon) {
    step();
  }
  if (now_ < horizon) now_ = horizon;
  return now_;
}

}  // namespace gridfed::sim
