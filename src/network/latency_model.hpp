#pragma once
// Wide-area network model.  The paper treats inter-GFA messaging as free of
// latency and job payloads as instantaneous; real federations are coupled
// over the Internet (Fig. 1), where control messages see per-pair latency
// and a migrated job must ship Gamma = alpha * gamma_k gigabits of input
// data (Eq. 1) through the slower of the two sites' access links.  This
// module supplies that substrate:
//
//  * control-plane latency: constant, or synthetic-coordinate (each site
//    gets a deterministic point in a 2-D latency space; pairwise latency
//    is proportional to distance — the classic network-coordinates
//    abstraction);
//  * data-plane transfer time for a payload of known size over the
//    bottleneck of the two endpoints' NIC bandwidths.
//
// Federation uses it when config.network != nullopt; with the default
// (disabled) the paper's zero-latency assumption applies.

#include <cstdint>
#include <vector>

#include "cluster/resource.hpp"
#include "sim/types.hpp"

namespace gridfed::network {

/// How control-plane latency between two sites is derived.
enum class LatencyKind : std::uint8_t {
  kConstant,     ///< every pair: base_latency
  kCoordinates,  ///< per-pair: base + scale * 2-D coordinate distance
};

/// Model parameters.
struct NetworkConfig {
  LatencyKind kind = LatencyKind::kConstant;
  sim::SimTime base_latency = 0.05;  ///< seconds (one way)
  /// kCoordinates: latency = base + diameter * distance, with sites placed
  /// deterministically (by name) in the unit square.
  sim::SimTime diameter = 0.25;
  /// Data-plane efficiency: fraction of the bottleneck NIC bandwidth a
  /// WAN transfer actually achieves.
  double wan_efficiency = 0.25;
  std::uint64_t seed = 0x1a7e9c7ULL;  ///< placement seed (kCoordinates)
};

/// Deterministic per-pair latency + transfer-time oracle.
class LatencyModel {
 public:
  LatencyModel(const NetworkConfig& config,
               const std::vector<cluster::ResourceSpec>& specs);

  /// One-way control-message latency between two sites (0 for self).
  [[nodiscard]] sim::SimTime latency(cluster::ResourceIndex from,
                                     cluster::ResourceIndex to) const;

  /// Time to ship `gigabits` of payload from `from` to `to`: latency plus
  /// gigabits / (wan_efficiency * min(gamma_from, gamma_to)).
  [[nodiscard]] sim::SimTime transfer_time(cluster::ResourceIndex from,
                                           cluster::ResourceIndex to,
                                           double gigabits) const;

  /// One-way delay of a control message of `bytes` serialized size:
  /// per-pair latency plus the payload's transmission time over the
  /// bottleneck access link.  The seed charged every control message
  /// pure latency, so a 40-job batched solicitation cost exactly as
  /// much wire time as a 64-byte reply; this is the honest size-aware
  /// costing for batched messages.
  [[nodiscard]] sim::SimTime control_delay(cluster::ResourceIndex from,
                                           cluster::ResourceIndex to,
                                           std::uint64_t bytes) const;

  [[nodiscard]] std::size_t sites() const noexcept { return gamma_.size(); }
  [[nodiscard]] const NetworkConfig& config() const noexcept { return cfg_; }

  /// Largest pairwise latency (diagnostics; bounds timeout settings).
  [[nodiscard]] sim::SimTime max_latency() const;

 private:
  NetworkConfig cfg_;
  std::vector<double> gamma_;  // per-site NIC bandwidth (Gb/s)
  std::vector<double> x_, y_;  // kCoordinates placement
};

}  // namespace gridfed::network
