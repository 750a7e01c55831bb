#include "transport/direct_transport.hpp"

#include <utility>

namespace gridfed::transport {

std::uint64_t DirectTransport::multicast(
    core::Message&& msg, std::span<const cluster::ResourceIndex> targets,
    sim::SimTime not_after) {
  (void)not_after;  // point-to-point sends nothing later than now
  targets = collapse_groups(targets);  // one delivery per participant
  for (std::size_t i = 0; i < targets.size(); ++i) {
    if (i + 1 == targets.size()) {
      msg.to = targets[i];
      direct_unicast(std::move(msg));
      break;
    }
    core::Message copy = msg;  // shares the arena-backed batch view
    copy.to = targets[i];
    direct_unicast(std::move(copy));
  }
  return targets.size();
}

}  // namespace gridfed::transport
