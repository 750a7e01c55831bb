#include "transport/direct_transport.hpp"

#include <utility>

namespace gridfed::transport {

std::uint64_t DirectTransport::multicast(
    core::Message&& msg, std::span<const cluster::ResourceIndex> targets,
    sim::SimTime not_after) {
  (void)not_after;  // point-to-point sends nothing later than now
  direct_send(std::move(msg), targets);
  return targets.size();
}

}  // namespace gridfed::transport
