#pragma once
// Point-to-point delivery — the paper's model, and bit-identical to the
// pre-transport Federation::send() seam (pinned by the golden digests in
// tests/test_transport.cpp): every message is recorded, runs the loss
// lottery, and arrives after the configured one-way delay.  A multicast
// is one unicast per target, in target order, all delivering the one
// composed body.

#include <optional>

#include "transport/transport.hpp"

namespace gridfed::transport {

class DirectTransport final : public Transport {
 public:
  DirectTransport(TransportContext& ctx,
                  std::optional<network::LatencyModel> wan,
                  obs::Observer* observer)
      : Transport(ctx, std::move(wan), observer) {}

  void unicast(core::Outgoing msg) override { direct_unicast(msg); }

  std::uint64_t multicast(core::Outgoing msg,
                          std::span<const cluster::ResourceIndex> targets,
                          sim::SimTime not_after) override;
};

}  // namespace gridfed::transport
