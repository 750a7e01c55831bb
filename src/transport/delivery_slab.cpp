#include "transport/delivery_slab.hpp"

#include <utility>

#include "transport/transport.hpp"

namespace gridfed::transport {

DeliverySlab::DeliverySlab(TransportContext& ctx)
    : ctx_(ctx), sim_(ctx.sim()) {}

void DeliverySlab::deliver(std::uint32_t slot, cluster::ResourceIndex to) {
  // The delivery's hold keeps the slot until deliver() returns, so the
  // messages it composes land elsewhere and `msg` stays put.
  core::Message& msg = entries_[slot].msg;
  msg.to = to;
  ctx_.deliver(msg);
  release(slot);
}

void DeliverySlab::recycle(std::uint32_t slot) {
  core::Message& msg = entries_[slot].msg;
  msg.arena.reset();  // a free slot must not pin a flush's job arena
  if (msg.batch_bids.capacity() != 0) {
    msg.batch_bids.clear();
    spare_bids_.push_back(std::move(msg.batch_bids));
  }
  entries_.free(slot);
}

std::vector<core::BatchedBid> DeliverySlab::bid_buffer() {
  if (spare_bids_.empty()) return {};
  std::vector<core::BatchedBid> buffer = std::move(spare_bids_.back());
  spare_bids_.pop_back();
  return buffer;
}

}  // namespace gridfed::transport
