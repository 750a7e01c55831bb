#include "transport/transport.hpp"

#include <utility>

#include "transport/direct_transport.hpp"
#include "transport/tree_transport.hpp"

namespace gridfed::transport {

sim::SimTime Transport::delay_for(const core::Message& msg) const {
  if (!wan_) return cfg_.network_latency;
  if (msg.type == core::MessageType::kJobSubmission) {
    // The job payload additionally ships Eq. 1's data volume.
    return wan_->transfer_time(
        msg.from, msg.to,
        cluster::data_transferred(msg.job, ctx_.spec_of(msg.job.origin)));
  }
  return wan_->control_delay(msg.from, msg.to, core::wire_bytes(msg));
}

void Transport::direct_send(core::Outgoing msg,
                            std::span<const cluster::ResourceIndex> targets) {
  const std::uint32_t slot = msg.slot();
  core::Message& body = *msg;
  for (const cluster::ResourceIndex target : targets) {
    body.to = target;  // what the ledger and the WAN delay read
    ledger_.record(body);
    if (lost(body.type)) continue;
    const sim::SimTime delay = delay_for(body);
    if (duplicated(body.type)) {
      // The network delivered twice: a second wire message with the same
      // content (recorded as such), arriving at the same instant.
      ledger_.record(body);
      slab_.post(slot, target, delay);
    }
    slab_.post(slot, target, delay);
  }
  slab_.release(slot);
}

std::unique_ptr<Transport> make_transport(
    TransportContext& ctx, std::optional<network::LatencyModel> wan,
    obs::Observer* observer,
    const federation::ParticipantRegistry* participants) {
  switch (ctx.config().transport.kind) {
    case TransportKind::kDirect:
      return std::make_unique<DirectTransport>(ctx, std::move(wan), observer);
    case TransportKind::kTree:
      return std::make_unique<TreeTransport>(ctx, std::move(wan), observer,
                                             participants);
  }
  __builtin_unreachable();
}

}  // namespace gridfed::transport
