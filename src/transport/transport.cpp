#include "transport/transport.hpp"

#include <algorithm>
#include <utility>

#include "transport/direct_transport.hpp"
#include "transport/tree_transport.hpp"

namespace gridfed::transport {

std::span<const cluster::ResourceIndex> Transport::collapse_groups(
    std::span<const cluster::ResourceIndex> targets) {
  if (groups_ == nullptr) return targets;
  group_scratch_.clear();
  for (const cluster::ResourceIndex target : targets) {
    const cluster::ResourceIndex rep =
        groups_->representative(groups_->participant_of(target));
    if (std::find(group_scratch_.begin(), group_scratch_.end(), rep) ==
        group_scratch_.end()) {
      group_scratch_.push_back(rep);
    }
  }
  return group_scratch_;
}

sim::SimTime Transport::delay_for(const core::Message& msg) const {
  const auto& cfg = ctx_.config();
  if (!wan_) return cfg.network_latency;
  if (msg.type == core::MessageType::kJobSubmission) {
    // The job payload additionally ships Eq. 1's data volume.
    return wan_->transfer_time(
        msg.from, msg.to,
        cluster::data_transferred(msg.job, ctx_.spec_of(msg.job.origin)));
  }
  return wan_->control_delay(msg.from, msg.to, core::wire_bytes(msg));
}

void Transport::schedule_delivery(core::Message&& msg, sim::SimTime delay) {
  ctx_.post_delivery(std::move(msg), delay);
}

void Transport::direct_unicast(core::Message&& msg) {
  ctx_.ledger().record(msg);
  if (lost(msg.type)) return;
  const sim::SimTime delay = delay_for(msg);
  if (duplicated(msg.type)) {
    // The network delivered twice: a second wire message with the same
    // content (recorded as such), arriving at the same instant.
    ctx_.ledger().record(msg);
    schedule_delivery(core::Message(msg), delay);
  }
  schedule_delivery(std::move(msg), delay);
}

std::unique_ptr<Transport> make_transport(
    TransportContext& ctx, std::optional<network::LatencyModel> wan) {
  switch (ctx.config().transport.kind) {
    case TransportKind::kDirect:
      return std::make_unique<DirectTransport>(ctx, std::move(wan));
    case TransportKind::kTree:
      return std::make_unique<TreeTransport>(ctx, std::move(wan));
  }
  __builtin_unreachable();
}

}  // namespace gridfed::transport
