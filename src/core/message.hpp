#pragma once
// Inter-GFA scheduling messages and their accounting.
//
// The paper's protocol uses four message types (§3.5): `negotiate` (the
// admission-control enquiry), `reply` (accept/reject with the completion
// guarantee), `job-submission` (the job itself) and `job-completion` (the
// output coming home).  Experiments 4 and 5 are entirely about counting
// these messages, split per the paper's definition:
//
//   * a message is *local* at the GFA whose own job it concerns (the
//     home/origin GFA scheduling its user's job), and
//   * *remote* at the counterpart GFA (working on a foreigner's job).
//
// Every message therefore contributes exactly one local count and one
// remote count; federation-wide, sum(local) == sum(remote) == total
// messages (the Fig 9(c) series counts each message once).

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "cluster/job.hpp"
#include "cluster/resource.hpp"
#include "membership/gossip.hpp"
#include "sim/event.hpp"
#include "sim/types.hpp"
#include "transport/message_arena.hpp"

namespace gridfed::core {

/// The four scheduling message types of §3.5, extended with the three
/// auction-mode messages (market/): the call-for-bids broadcast, the
/// sealed bid coming back, and the award notifying the winner.  The award
/// doubles as an admission enquiry — the winner re-checks and answers with
/// a kReply, so the ship/completion legs are shared with DBC.
enum class MessageType : std::uint8_t {
  kNegotiate,      ///< admission-control enquiry (can you meet s+d?)
  kReply,          ///< accept/reject + completion-time guarantee
  kJobSubmission,  ///< the job payload
  kJobCompletion,  ///< the job output returning to the origin
  kCallForBids,    ///< auction: solicitation broadcast to providers
  kBid,            ///< auction: sealed ask + completion estimate
  kAward,          ///< auction: winner notification (admission re-check)
  kGossip,         ///< membership: push-pull anti-entropy digest
};

/// Number of MessageType values (sizes the per-type counters).  Derived
/// from the last enumerator so it cannot drift from the enum.
inline constexpr std::size_t kMessageTypeCount =
    static_cast<std::size_t>(MessageType::kGossip) + 1;
// Each delivery event is tagged with its message type's kind.
static_assert(kMessageTypeCount == sim::kDeliveryKinds);

[[nodiscard]] constexpr const char* to_string(MessageType t) noexcept {
  switch (t) {
    case MessageType::kNegotiate:
      return "negotiate";
    case MessageType::kReply:
      return "reply";
    case MessageType::kJobSubmission:
      return "job-submission";
    case MessageType::kJobCompletion:
      return "job-completion";
    case MessageType::kCallForBids:
      return "call-for-bids";
    case MessageType::kBid:
      return "bid";
    case MessageType::kAward:
      return "award";
    case MessageType::kGossip:
      return "gossip";
  }
  return "?";
}

/// One sealed ask inside a batched kBid message: the provider's answer
/// for one of the jobs a batched call-for-bids carried.
struct BatchedBid {
  cluster::JobId job = 0;
  double ask = 0.0;
  sim::SimTime completion_estimate = 0.0;
  bool feasible = false;
  /// In-network prune tombstone: an overlay relay scored this bid out of
  /// the decision-relevant rank prefix (TreeTransport convergecast
  /// pruning) and forwarded only the answer marker.  The quote fields
  /// above are zeroed; the origin's book records the bidder as answered
  /// without entering a bid.
  bool pruned = false;
};

/// One inter-GFA message.  The full Job rides along: negotiate needs the
/// QoS parameters for the remote estimate, submission needs the payload,
/// and reply/completion use it for identification/accounting.
///
/// A message is built once, in the delivery-slab slot it is delivered
/// from: senders compose() it (which resets every payload field below),
/// fill it through the Outgoing handle, and send that handle.
///
/// Batched solicitation (AuctionConfig::batch_solicitations) coalesces
/// same-window call-for-bids per (origin, provider) pair: one kCallForBids
/// carries several jobs in `batch_jobs`, answered by one kBid carrying
/// one BatchedBid per job.  `job` still holds the first batched job so
/// the ledger's local/remote classification (batches never mix origins)
/// and the routing asserts keep working unchanged.
struct Message {
  MessageType type = MessageType::kNegotiate;
  cluster::ResourceIndex from = 0;
  cluster::ResourceIndex to = 0;
  cluster::Job job;

  // Reply payload.
  bool accept = false;
  sim::SimTime completion_estimate = 0.0;

  // Job-completion payload: the definite execution window, so the origin
  // records the true completion instant rather than the (latency-delayed)
  // arrival of this message.
  sim::SimTime start_time = 0.0;

  // Auction payload: the sealed ask (kBid) or the cleared payment the
  // origin commits to settle (kAward).
  double price = 0.0;

  /// kReply payload (coalition extension): the member cluster that will
  /// actually execute the job when a coalition's representative accepted
  /// on the group's behalf — the origin ships the payload straight to
  /// it.  kNoResource (the default, and always in the solo market) means
  /// the replier itself executes.
  cluster::ResourceIndex exec_site = cluster::kNoResource;

  // Batched-solicitation payloads (empty outside batched auction mode).
  /// kCallForBids: all jobs asked.  The jobs live in a shared
  /// MessageArena (one per solicitation flush, `arena` below keeps it
  /// alive); every provider's copy of the message views the same
  /// storage, so a 50-provider flush writes the job list once instead
  /// of once per provider.
  std::span<const cluster::Job> batch_jobs;
  /// Keep-alive for `batch_jobs` (null when the span is empty).
  transport::ArenaHandle arena;
  /// kBid: one ask per asked job.  The buffer is recycled: once the
  /// answer is delivered, the Federation clears it and hands it to the
  /// next batched answer (SchedulerContext::bid_buffer), capacity kept.
  std::vector<BatchedBid> batch_bids;

  /// kGossip: the sender's full membership digest (empty otherwise).
  /// `accept` doubles as the push-pull flag — true marks the answering
  /// pull leg, which is not answered again.
  std::vector<membership::GossipRecord> gossip;

  /// Set on payloads delivered through an overlay relay (TreeTransport):
  /// the wire cost was booked by the transport as shared edge messages,
  /// so per-job policy counters must not book the delivery again.
  bool via_overlay = false;

  /// Single-bid kBid counterpart of BatchedBid::pruned: the whole bid
  /// was tombstoned in-network; price/completion_estimate/accept are
  /// zeroed and only the answer marker reaches the origin.
  bool bid_pruned = false;
};

/// A message being composed in place, in the delivery-slab slot it will
/// be delivered from (transport/delivery_slab.hpp).  compose() hands one
/// out with every payload field reset; the sender fills the payload
/// through it and passes it to exactly one send, which takes the slot
/// over.  Copying the handle copies the reference, not the message.
class Outgoing {
 public:
  Outgoing(Message& msg, std::uint32_t slot) noexcept
      : msg_(&msg), slot_(slot) {}

  [[nodiscard]] Message& operator*() const noexcept { return *msg_; }
  [[nodiscard]] Message* operator->() const noexcept { return msg_; }
  /// The slab slot the message lives in.
  [[nodiscard]] std::uint32_t slot() const noexcept { return slot_; }

 private:
  Message* msg_;
  std::uint32_t slot_;
};

// ---- wire-size model --------------------------------------------------------
// Deliberately coarse serialized sizes, used by the per-type byte
// counters and the size-aware WAN control delay: what matters is that a
// batched message carrying 40 jobs is costed ~40x a single-job one, not
// the exact marshalling format.

inline constexpr std::uint64_t kMessageHeaderBytes = 64;  ///< fixed fields
inline constexpr std::uint64_t kJobWireBytes = 96;        ///< one Job record
inline constexpr std::uint64_t kBidWireBytes = 32;        ///< one BatchedBid

// Compact convergecast frame (TreeTransport bid aggregation): an edge
// message that merges every bid payload crossing one tree edge in one
// instant pays the message header ONCE, identifies each merged
// provider→origin stream by a fixed stub instead of a full header + Job
// record, and carries each surviving quote either whole (the first of
// its job-shape group on the edge) or as a quantum delta against that
// base (shape = log-bucketed job length and comm overhead).
// A pruned bid shrinks to a tombstone: job + bidder reference, enough
// for the origin's book to mark the bidder answered.
inline constexpr std::uint64_t kBidFrameBytes =
    kMessageHeaderBytes;  ///< per merged edge message
inline constexpr std::uint64_t kBidSourceBytes =
    16;  ///< per provider→origin stream: provider, origin, count
inline constexpr std::uint64_t kBidQuoteBytes =
    kBidWireBytes;  ///< first quote of a shape group: full BatchedBid
inline constexpr std::uint64_t kBidDeltaBytes =
    12;  ///< same-shape follower: job ref + quantized ask/estimate deltas
inline constexpr std::uint64_t kBidTombstoneBytes =
    8;  ///< pruned bid: job ref + bidder ref

/// Serialized size of one message under the model above.  Every message
/// carries at least one Job (the identification/payload field); batched
/// messages replace it with their batch.
[[nodiscard]] std::uint64_t wire_bytes(const Message& msg) noexcept;

/// Serialized size of one compact convergecast edge frame: `sources`
/// merged provider streams carrying `bases` full quotes, `deltas`
/// same-shape delta quotes, and `tombstones` prune markers.
[[nodiscard]] std::uint64_t encoded_bid_frame_bytes(
    std::uint64_t sources, std::uint64_t bases, std::uint64_t deltas,
    std::uint64_t tombstones) noexcept;

/// Per-GFA local/remote message counters plus per-type message and byte
/// totals.  Overlay relay traffic (TreeTransport edge messages, which
/// carry payloads for many origins at once) is booked separately: each
/// wire message still counts once federation-wide, but per-GFA it is
/// load at *both* endpoints and fits neither the local nor the remote
/// classification.
class MessageLedger {
 public:
  explicit MessageLedger(std::size_t n_gfas);

  /// Records one point-to-point message.  Classification: the endpoint
  /// that equals msg.job.origin counts it as local traffic, the other as
  /// remote.
  void record(const Message& msg);

  /// Records one overlay wire message on the tree edge (from, to):
  /// counted once federation-wide (total / per-type / bytes) and as
  /// relay load at both endpoints.
  void record_relay(cluster::ResourceIndex from, cluster::ResourceIndex to,
                    MessageType type, std::uint64_t bytes);

  [[nodiscard]] std::uint64_t local_at(cluster::ResourceIndex gfa) const;
  [[nodiscard]] std::uint64_t remote_at(cluster::ResourceIndex gfa) const;
  [[nodiscard]] std::uint64_t relay_at(cluster::ResourceIndex gfa) const;

  /// local + remote + relay at one GFA (the Fig 11 per-GFA series).
  [[nodiscard]] std::uint64_t total_at(cluster::ResourceIndex gfa) const;

  /// Federation-wide message count (each message counted once).
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  /// Federation-wide payload bytes under the wire-size model.
  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return total_bytes_;
  }
  /// Overlay relay wire messages (0 outside TreeTransport runs).
  [[nodiscard]] std::uint64_t relay_total() const noexcept {
    return relay_total_;
  }

  [[nodiscard]] std::uint64_t count_of(MessageType t) const;
  [[nodiscard]] std::uint64_t bytes_of(MessageType t) const;

  [[nodiscard]] std::size_t gfas() const noexcept { return local_.size(); }

 private:
  std::vector<std::uint64_t> local_;
  std::vector<std::uint64_t> remote_;
  std::vector<std::uint64_t> relay_;
  std::uint64_t by_type_[kMessageTypeCount] = {};
  std::uint64_t bytes_by_type_[kMessageTypeCount] = {};
  std::uint64_t total_ = 0;
  std::uint64_t total_bytes_ = 0;
  std::uint64_t relay_total_ = 0;
};

}  // namespace gridfed::core
