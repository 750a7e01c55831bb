#pragma once
// Fundamental scalar types shared by every gridfed subsystem.

#include <cstdint>
#include <limits>

namespace gridfed::sim {

/// Simulation clock value, in simulated seconds.  The paper reports
/// "simulation units"; we use seconds throughout (trace runtimes are in
/// seconds).  Events are totally ordered by (time, priority, sequence) so a
/// double here never produces nondeterminism.
using SimTime = double;

/// Sentinel for "never" / unbounded horizon.
inline constexpr SimTime kTimeInfinity = std::numeric_limits<SimTime>::infinity();

/// Monotone sequence number used to stabilise event ordering.
using EventSeq = std::uint64_t;

}  // namespace gridfed::sim
