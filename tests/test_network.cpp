// Tests for the WAN model and its integration: per-pair latencies, Eq. 1
// payload transfer times, the admission-control staging constraint (a
// migrated job cannot start before its data lands), and reservation holds
// that outlast the payload's staging under enquiry timeouts.

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "cluster/catalog.hpp"
#include "core/experiment.hpp"
#include "network/latency_model.hpp"
#include "workload/synthetic.hpp"

namespace gridfed {
namespace {

network::LatencyModel table1_wan(network::NetworkConfig cfg = {}) {
  return network::LatencyModel(cfg, cluster::table1_specs());
}

TEST(LatencyModel, SelfLatencyIsZero) {
  auto wan = table1_wan();
  for (cluster::ResourceIndex i = 0; i < 8; ++i) {
    EXPECT_DOUBLE_EQ(wan.latency(i, i), 0.0);
  }
}

TEST(LatencyModel, ConstantKindIsUniform) {
  network::NetworkConfig cfg;
  cfg.kind = network::LatencyKind::kConstant;
  cfg.base_latency = 0.08;
  auto wan = table1_wan(cfg);
  for (cluster::ResourceIndex a = 0; a < 8; ++a) {
    for (cluster::ResourceIndex b = 0; b < 8; ++b) {
      if (a == b) continue;
      EXPECT_DOUBLE_EQ(wan.latency(a, b), 0.08);
    }
  }
}

TEST(LatencyModel, CoordinatesAreSymmetricAndBounded) {
  network::NetworkConfig cfg;
  cfg.kind = network::LatencyKind::kCoordinates;
  cfg.base_latency = 0.02;
  cfg.diameter = 0.2;
  auto wan = table1_wan(cfg);
  for (cluster::ResourceIndex a = 0; a < 8; ++a) {
    for (cluster::ResourceIndex b = 0; b < 8; ++b) {
      if (a == b) continue;
      EXPECT_DOUBLE_EQ(wan.latency(a, b), wan.latency(b, a));
      EXPECT_GE(wan.latency(a, b), 0.02);
      // Max distance in the unit square is sqrt(2).
      EXPECT_LE(wan.latency(a, b), 0.02 + 0.2 * 1.4143);
    }
  }
  EXPECT_LE(wan.max_latency(), 0.02 + 0.2 * 1.4143);
}

TEST(LatencyModel, CoordinatesDeterministicByName) {
  network::NetworkConfig cfg;
  cfg.kind = network::LatencyKind::kCoordinates;
  auto a = table1_wan(cfg);
  auto b = table1_wan(cfg);
  EXPECT_DOUBLE_EQ(a.latency(0, 5), b.latency(0, 5));
}

TEST(LatencyModel, TransferUsesBottleneckBandwidth) {
  network::NetworkConfig cfg;
  cfg.kind = network::LatencyKind::kConstant;
  cfg.base_latency = 0.0;
  cfg.wan_efficiency = 0.5;
  auto wan = table1_wan(cfg);
  // CTC (gamma 2) -> LANL CM5 (gamma 1): bottleneck 1 Gb/s at 50% = 0.5.
  const auto ctc = cluster::catalog_index("CTC SP2");
  const auto cm5 = cluster::catalog_index("LANL CM5");
  EXPECT_DOUBLE_EQ(wan.transfer_time(ctc, cm5, 10.0), 20.0);
  // Local transfers are free.
  EXPECT_DOUBLE_EQ(wan.transfer_time(ctc, ctc, 10.0), 0.0);
}

TEST(LatencyModel, InvalidConfigRejected) {
  network::NetworkConfig cfg;
  cfg.wan_efficiency = 0.0;
  EXPECT_ANY_THROW(table1_wan(cfg));
}

// ---- Federation integration -------------------------------------------------

core::FederationConfig wan_config() {
  auto cfg = core::make_config(core::SchedulingMode::kEconomy);
  network::NetworkConfig wan;
  wan.kind = network::LatencyKind::kCoordinates;
  wan.base_latency = 0.05;
  wan.diameter = 0.2;
  cfg.wan = wan;
  return cfg;
}

TEST(WanFederation, RunsToCompletionWithAllInvariants) {
  const auto cfg = wan_config();
  auto specs = cluster::table1_specs();
  core::Federation fed(cfg, specs);
  fed.load_workload(
      workload::generate_federation_workload(specs, cfg.window, cfg.seed),
      workload::PopulationProfile{50});
  const auto result = fed.run();
  EXPECT_EQ(result.total_accepted + result.total_rejected, result.total_jobs);
  // Deadline guarantees must survive the staging constraint.
  for (const auto& o : fed.outcomes()) {
    if (!o.accepted) continue;
    EXPECT_LE(o.completion, o.job.absolute_deadline() + 1e-6)
        << "job " << o.job.id;
  }
}

TEST(WanFederation, MigratedJobsStartAfterDataLands) {
  const auto cfg = wan_config();
  auto specs = cluster::table1_specs();
  core::Federation fed(cfg, specs);
  fed.load_workload(
      workload::generate_federation_workload(specs, cfg.window, cfg.seed),
      workload::PopulationProfile{50});
  (void)fed.run();
  std::uint64_t checked = 0;
  for (const auto& o : fed.outcomes()) {
    if (!o.accepted || !o.migrated()) continue;
    const auto staging = fed.payload_staging_time(o.job, o.executed_on);
    EXPECT_GE(o.start + 1e-9, o.job.submit + staging) << "job " << o.job.id;
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(WanFederation, StagingMakesMigrationStrictlyHarder) {
  // Payload staging consumes deadline slack, so a WAN federation migrates
  // no more jobs than a free-network one on the same workload.
  const auto free_net =
      core::run_experiment(core::make_config(core::SchedulingMode::kEconomy),
                           8, 50);
  const auto wan = core::run_experiment(wan_config(), 8, 50);
  std::uint64_t free_migrated = 0, wan_migrated = 0;
  for (const auto& row : free_net.resources) free_migrated += row.migrated;
  for (const auto& row : wan.resources) wan_migrated += row.migrated;
  EXPECT_LE(wan_migrated, free_migrated);
  EXPECT_GT(wan_migrated, 0u);
}

TEST(WanFederation, HoldsOutlastPayloadStagingUnderEnquiryTimeouts) {
  // A remote cluster holds its reservation for an enquiry until the
  // payload lands.  Under a WAN the payload needs its staging time on top
  // of the enquiry legs; a hold timeout blind to it cancelled
  // reservations whose payload was still in flight, and those jobs never
  // terminated (Federation::run failed its one-outcome-per-job
  // postcondition).  Both modes with a hold, both transports, with and
  // without loss.
  network::NetworkConfig wan;
  wan.kind = network::LatencyKind::kCoordinates;
  for (const auto mode :
       {core::SchedulingMode::kEconomy, core::SchedulingMode::kAuction}) {
    for (const auto kind :
         {transport::TransportKind::kDirect, transport::TransportKind::kTree}) {
      for (const double drop : {0.0, 0.1}) {
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
          SCOPED_TRACE(std::string(core::to_string(mode)) + " tree " +
                       std::to_string(kind == transport::TransportKind::kTree) +
                       " drop " + std::to_string(drop) + " seed " +
                       std::to_string(seed));
          auto cfg = core::make_config(mode, seed);
          cfg.wan = wan;
          cfg.negotiate_timeout = 200.0;
          cfg.message_drop_rate = drop;
          cfg.transport.kind = kind;
          if (mode == core::SchedulingMode::kAuction) {
            cfg.auction.bid_timeout = 1000.0;
          }
          const auto specs = cluster::replicated_specs(8);
          core::Federation fed(cfg, specs);
          const auto traces =
              workload::generate_federation_workload(specs, cfg.window, seed);
          std::size_t loaded = 0;
          for (const auto& trace : traces) loaded += trace.jobs.size();
          fed.load_workload(traces, workload::PopulationProfile{30});
          std::optional<core::FederationResult> result;
          EXPECT_NO_THROW(result = fed.run());
          if (!result) continue;
          EXPECT_EQ(fed.outcomes().size(), loaded);
          EXPECT_EQ(result->total_accepted + result->total_rejected, loaded);
          EXPECT_TRUE(fed.bank().balanced());
        }
      }
    }
  }
}

TEST(WanFederation, TimeoutValidationUsesWorstPairLatency) {
  auto cfg = wan_config();
  cfg.negotiate_timeout = 0.05;  // below 2x the worst pair latency
  EXPECT_ANY_THROW(core::Federation(cfg, cluster::table1_specs()));
}

}  // namespace
}  // namespace gridfed
