#pragma once
// In-flight origin-side scheduling state.  A Pending record travels with a
// job from submission until it is placed (locally or remotely) or
// rejected: the protocol engine (core/gfa.hpp) parks it while an enquiry
// is on the wire, and the scheduling policy (policy/) carries it between
// candidate attempts.
//
// The record is plain data and holds every piece of per-job enquiry
// state, whichever mode reads it: the DBC walk's next rank, the engine's
// enquiry bookkeeping, and the auction's award ranking.  Each field dies
// with the record, wherever the engine or the policy ends it (an
// accepted reply, a rejection, a crash drain).

#include <cstdint>

#include "cluster/job.hpp"
#include "cluster/resource.hpp"
#include "market/auction_engine.hpp"

namespace gridfed::core {

/// In-flight scheduling state for a job its origin GFA is placing.  Every
/// mode moves the whole record several times per enquiry, so the fields
/// are ordered to pack tightly.
struct Pending {
  cluster::Job job;
  std::uint32_t next_rank = 1;     ///< next directory rank to try
  std::uint32_t negotiations = 0;  ///< remote enquiries so far
  std::uint64_t messages = 0;      ///< protocol messages so far
  /// Monotone enquiry counter so a timeout only fires for its own
  /// enquiry, never a later one.
  std::uint64_t attempt = 0;
  /// The GFA currently being negotiated with (kNoResource = none).  Used
  /// to discard stale replies after a timeout abandoned the enquiry.
  cluster::ResourceIndex current_target = cluster::kNoResource;
  /// True while the parked enquiry is an auction award (not a DBC
  /// negotiate) — the protocol engine uses it to book award declines
  /// and guarantee misses against the awarded provider (the reputation
  /// input signals).
  bool award_in_flight = false;

  // -- auction mode (policy/auction_policy.hpp) ---------------------------
  /// The book cleared with at least one award: the job works through
  /// `ranking` (and, once it is exhausted, the fallback) from here on.
  bool ranked = false;
  /// Book cleared empty or every award declined: finish via the DBC
  /// walk (when the config allows) rather than re-auctioning.
  bool dbc_fallback = false;
  /// Payment agreed for the in-flight award; settled instead of the
  /// posted-price cost when the winner accepts.
  double award_payment = 0.0;
  /// Awards still to try, best first; an award in flight is popped.
  market::Ranking ranking;
};

}  // namespace gridfed::core
