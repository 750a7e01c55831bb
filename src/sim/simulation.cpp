#include "sim/simulation.hpp"

#include "sim/check.hpp"

namespace gridfed::sim {

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
