#include "core/message.hpp"

#include <algorithm>

#include "sim/check.hpp"

namespace gridfed::core {

std::uint64_t wire_bytes(const Message& msg) noexcept {
  if (msg.type == MessageType::kGossip) {
    // A digest carries no job payload: header + one record per member.
    return kMessageHeaderBytes +
           membership::kGossipRecordBytes * msg.gossip.size();
  }
  // A pruned (tombstoned) bid entry costs its marker, not a full quote;
  // only TreeTransport's convergecast pruning produces them, so direct
  // messages take the branch-free multiply below.
  std::uint64_t bid_bytes = kBidWireBytes * msg.batch_bids.size();
  if (msg.type == MessageType::kBid) {
    for (const BatchedBid& bid : msg.batch_bids) {
      if (bid.pruned) bid_bytes -= kBidWireBytes - kBidTombstoneBytes;
    }
  }
  return kMessageHeaderBytes +
         kJobWireBytes *
             std::max<std::uint64_t>(1, msg.batch_jobs.size()) +
         bid_bytes;
}

std::uint64_t encoded_bid_frame_bytes(std::uint64_t sources,
                                      std::uint64_t bases,
                                      std::uint64_t deltas,
                                      std::uint64_t tombstones) noexcept {
  return kBidFrameBytes + kBidSourceBytes * sources +
         kBidQuoteBytes * bases + kBidDeltaBytes * deltas +
         kBidTombstoneBytes * tombstones;
}

MessageLedger::MessageLedger(std::size_t n_gfas)
    : local_(n_gfas, 0), remote_(n_gfas, 0), relay_(n_gfas, 0) {
  GF_EXPECTS(n_gfas > 0);
}

void MessageLedger::record(const Message& msg) {
  GF_EXPECTS(msg.from < local_.size() && msg.to < local_.size());
  GF_EXPECTS(msg.from != msg.to);  // self-messages are free (no network)
  const cluster::ResourceIndex origin = msg.job.origin;
  // The origin endpoint books the message as local scheduling work; the
  // counterpart books it as remote.  Exactly one endpoint is the origin:
  // every protocol message has the origin GFA on one side.
  const cluster::ResourceIndex other = (msg.from == origin) ? msg.to : msg.from;
  GF_EXPECTS(msg.from == origin || msg.to == origin);
  local_[origin] += 1;
  remote_[other] += 1;
  by_type_[static_cast<std::size_t>(msg.type)] += 1;
  const std::uint64_t bytes = wire_bytes(msg);
  bytes_by_type_[static_cast<std::size_t>(msg.type)] += bytes;
  total_bytes_ += bytes;
  total_ += 1;
}

void MessageLedger::record_relay(cluster::ResourceIndex from,
                                 cluster::ResourceIndex to, MessageType type,
                                 std::uint64_t bytes) {
  GF_EXPECTS(from < relay_.size() && to < relay_.size());
  GF_EXPECTS(from != to);
  relay_[from] += 1;
  relay_[to] += 1;
  by_type_[static_cast<std::size_t>(type)] += 1;
  bytes_by_type_[static_cast<std::size_t>(type)] += bytes;
  total_bytes_ += bytes;
  relay_total_ += 1;
  total_ += 1;
}

std::uint64_t MessageLedger::local_at(cluster::ResourceIndex gfa) const {
  GF_EXPECTS(gfa < local_.size());
  return local_[gfa];
}

std::uint64_t MessageLedger::remote_at(cluster::ResourceIndex gfa) const {
  GF_EXPECTS(gfa < remote_.size());
  return remote_[gfa];
}

std::uint64_t MessageLedger::relay_at(cluster::ResourceIndex gfa) const {
  GF_EXPECTS(gfa < relay_.size());
  return relay_[gfa];
}

std::uint64_t MessageLedger::total_at(cluster::ResourceIndex gfa) const {
  return local_at(gfa) + remote_at(gfa) + relay_at(gfa);
}

std::uint64_t MessageLedger::count_of(MessageType t) const {
  return by_type_[static_cast<std::size_t>(t)];
}

std::uint64_t MessageLedger::bytes_of(MessageType t) const {
  return bytes_by_type_[static_cast<std::size_t>(t)];
}

}  // namespace gridfed::core
