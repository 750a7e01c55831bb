#include "transport/direct_transport.hpp"

namespace gridfed::transport {

std::uint64_t DirectTransport::multicast(
    core::Outgoing msg, std::span<const cluster::ResourceIndex> targets,
    sim::SimTime not_after) {
  (void)not_after;  // point-to-point sends nothing later than now
  direct_send(msg, targets);
  return targets.size();
}

}  // namespace gridfed::transport
