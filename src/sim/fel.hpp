#pragma once
// The future-event list's key: a pending event is one 128-bit integer
//
//     [ time as IEEE-754 bits : 64 | priority : 2 | seq : 40 | slot : 22 ]
//
// For non-negative doubles the IEEE bit pattern orders exactly like the
// value, so a single unsigned 128-bit compare implements the full
// (time, priority, seq) strict weak ordering — one branch where the
// naive comparator needs three.  The callbacks live in a stable
// slot-indexed side array owned by EventQueue and never move while
// queued; the FEL structure (LadderQueue, ladder_queue.hpp) shuffles
// 16-byte integers only.  Keys are unique (slot uniqueness), so the pop
// order is one total order and every golden digest depends on it alone.

#include <bit>
#include <cstdint>

#include "sim/types.hpp"

namespace gridfed::sim {

/// Packed FEL key; see the layout above.
using FelKey = unsigned __int128;

inline constexpr std::uint64_t kFelSlotBits = 22;
inline constexpr std::uint64_t kFelSeqBits = 40;
inline constexpr std::uint64_t kFelSlotMask =
    (std::uint64_t{1} << kFelSlotBits) - 1;

[[nodiscard]] inline SimTime fel_time_of(FelKey k) noexcept {
  return std::bit_cast<SimTime>(static_cast<std::uint64_t>(k >> 64));
}

[[nodiscard]] inline std::uint32_t fel_slot_of(FelKey k) noexcept {
  return static_cast<std::uint32_t>(static_cast<std::uint64_t>(k) &
                                    kFelSlotMask);
}

/// Low 64 bits of a key: priority ‖ seq ‖ slot.  Unique per pending
/// event whenever seqs are unique (the Simulation assigns a monotone
/// counter), so it serves as a compact cancellation identity.
[[nodiscard]] inline std::uint64_t fel_low64(FelKey k) noexcept {
  return static_cast<std::uint64_t>(k);
}

}  // namespace gridfed::sim
