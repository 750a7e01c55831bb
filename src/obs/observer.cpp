#include "obs/observer.hpp"

namespace gridfed::obs {

Observer::Observer(const ObsConfig& cfg,
                   std::vector<std::string> track_names,
                   std::size_t participants) {
  if (cfg.trace) tracer_ = std::make_unique<Tracer>(std::move(track_names));
  if (cfg.metrics) metrics_ = std::make_unique<MetricsRegistry>(participants);
  if (cfg.forensics) forensics_ = std::make_unique<ForensicsLedger>();
}

}  // namespace gridfed::obs
