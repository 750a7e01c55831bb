#include "transport/delivery_slab.hpp"

#include <utility>

#include "transport/transport.hpp"

namespace gridfed::transport {

DeliverySlab::DeliverySlab(TransportContext& ctx)
    : ctx_(ctx), sim_(ctx.sim()) {}

std::uint32_t DeliverySlab::grow() {
  const std::uint32_t slot = slots_++;
  if (slot % kChunk == 0) {
    chunks_.push_back(std::make_unique<Entry[]>(kChunk));
  }
  return slot;
}

void DeliverySlab::deliver(std::uint32_t slot, cluster::ResourceIndex to) {
  // The delivery's hold keeps the slot until deliver() returns, so the
  // messages it posts land elsewhere and `msg` stays put.
  core::Message& msg = entry(slot).msg;
  msg.to = to;
  ctx_.deliver(msg);
  release(slot);
}

void DeliverySlab::recycle(std::uint32_t slot) {
  core::Message& msg = entry(slot).msg;
  msg.arena.reset();  // a parked slot must not pin a flush's job arena
  if (msg.batch_bids.capacity() != 0) {
    msg.batch_bids.clear();
    spare_bids_.push_back(std::move(msg.batch_bids));
  }
  free_slots_.push_back(slot);
}

std::vector<core::BatchedBid> DeliverySlab::bid_buffer() {
  if (spare_bids_.empty()) return {};
  std::vector<core::BatchedBid> buffer = std::move(spare_bids_.back());
  spare_bids_.pop_back();
  return buffer;
}

}  // namespace gridfed::transport
