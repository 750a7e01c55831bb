#include "network/latency_model.hpp"

#include <algorithm>
#include <cmath>

#include "sim/check.hpp"
#include "sim/random.hpp"

namespace gridfed::network {

LatencyModel::LatencyModel(const NetworkConfig& config,
                           const std::vector<cluster::ResourceSpec>& specs)
    : cfg_(config) {
  GF_EXPECTS(!specs.empty());
  GF_EXPECTS(cfg_.base_latency >= 0.0 && cfg_.diameter >= 0.0);
  GF_EXPECTS(cfg_.wan_efficiency > 0.0 && cfg_.wan_efficiency <= 1.0);
  gamma_.reserve(specs.size());
  x_.reserve(specs.size());
  y_.reserve(specs.size());
  for (const auto& spec : specs) {
    gamma_.push_back(spec.bandwidth);
    // Deterministic placement: each site's coordinates derive from its
    // name, so replicas land at distinct points and runs are reproducible.
    sim::Rng rng = sim::Rng::stream(cfg_.seed, spec.name);
    x_.push_back(rng.uniform01());
    y_.push_back(rng.uniform01());
  }
}

sim::SimTime LatencyModel::latency(cluster::ResourceIndex from,
                                   cluster::ResourceIndex to) const {
  GF_EXPECTS(from < gamma_.size() && to < gamma_.size());
  if (from == to) return 0.0;
  switch (cfg_.kind) {
    case LatencyKind::kConstant:
      return cfg_.base_latency;
    case LatencyKind::kCoordinates: {
      const double dx = x_[from] - x_[to];
      const double dy = y_[from] - y_[to];
      return cfg_.base_latency + cfg_.diameter * std::sqrt(dx * dx + dy * dy);
    }
  }
  return cfg_.base_latency;
}

sim::SimTime LatencyModel::transfer_time(cluster::ResourceIndex from,
                                         cluster::ResourceIndex to,
                                         double gigabits) const {
  GF_EXPECTS(gigabits >= 0.0);
  if (from == to) return 0.0;
  const double bottleneck =
      cfg_.wan_efficiency * std::min(gamma_[from], gamma_[to]);
  GF_ENSURES(bottleneck > 0.0);
  return latency(from, to) + gigabits / bottleneck;
}

sim::SimTime LatencyModel::control_delay(cluster::ResourceIndex from,
                                         cluster::ResourceIndex to,
                                         std::uint64_t bytes) const {
  if (from == to) return 0.0;
  const double gigabits = static_cast<double>(bytes) * 8.0e-9;
  return transfer_time(from, to, gigabits);
}

sim::SimTime LatencyModel::max_latency() const {
  sim::SimTime worst = 0.0;
  for (cluster::ResourceIndex a = 0; a < gamma_.size(); ++a) {
    for (cluster::ResourceIndex b = 0; b < gamma_.size(); ++b) {
      worst = std::max(worst, latency(a, b));
    }
  }
  return worst;
}

}  // namespace gridfed::network
