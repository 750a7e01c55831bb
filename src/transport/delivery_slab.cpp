#include "transport/delivery_slab.hpp"

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

}  // namespace gridfed::transport
