// Kernel microbenchmarks (google-benchmark): event queue throughput,
// the warm compose → send → deliver message path, availability-profile
// operations, auction booking and ranking, directory ranked queries, and
// the end-to-end jobs/second of a full federation run — the numbers that
// justify replacing the Java GridSim substrate (DESIGN.md substitution 2).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <vector>

#include "cluster/availability_profile.hpp"
#include "cluster/catalog.hpp"
#include "core/experiment.hpp"
#include "directory/federation_directory.hpp"
#include "market/auction_engine.hpp"
#include "sim/event_queue.hpp"
#include "sim/fel.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"
#include "transport/direct_transport.hpp"

namespace {

using namespace gridfed;

/// Pushes a no-op event at (t, prio, seq): the closure is written into
/// the slot push() returns, as the Simulation's schedule templates do.
void push_noop(sim::EventQueue& q, double t, sim::EventPriority prio,
               sim::EventSeq seq) {
  q.push(t, prio, seq).set(sim::EventKind::kOther, [] {});
}

void BM_EventQueuePushPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(1);
  std::vector<double> times(n);
  for (auto& t : times) t = rng.uniform(0.0, 1e6);
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      push_noop(q, times[i], sim::EventPriority::kArrival,
                static_cast<sim::EventSeq>(i));
    }
    sim::EventRecord event;
    while (!q.empty()) {
      benchmark::DoNotOptimize(sim::fel_time_of(q.pop(event)));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n) * 2);
}
// 1024/16384 are cache-resident pending sets; 65536/262144 are the
// cold-cache regimes where a comparison heap's dependent loads stop
// fitting in cache and the ladder's O(1) tiers pay (bench/README.md,
// "Future-event list").
BENCHMARK(BM_EventQueuePushPop)
    ->Arg(1024)
    ->Arg(16384)
    ->Arg(65536)
    ->Arg(262144);

// The classic hold model: the live set stays at 4096 keys, and each pop
// pushes one key a message latency past the clock, or far ahead (a
// window-end timer) for 1 push in 16.  Far keys accumulate until the
// model reaches its stationary state, where nearly every pending key is
// a far one and each short-latency push sorts into a small Bottom.
// Items are holds: one pop plus one push.
void BM_EventQueueHold(benchmark::State& state) {
  constexpr std::size_t kLive = 4096;
  constexpr std::size_t kFar = 16;
  constexpr double kLatency = 0.1;
  sim::Rng rng(3);
  std::vector<double> far(1024);
  for (auto& t : far) t = rng.uniform(1e4, 1e5);
  sim::EventQueue q;
  sim::EventSeq seq = 0;
  for (std::size_t i = 0; i < kLive; ++i) {
    push_noop(q, rng.uniform(0.0, kLatency), sim::EventPriority::kMessage,
              seq++);
  }
  sim::EventRecord event;
  for (auto _ : state) {
    const double now = sim::fel_time_of(q.pop(event));
    const double delay = seq % kFar == 0 ? far[seq / kFar % far.size()]
                                         : kLatency;
    push_noop(q, now + delay, sim::EventPriority::kMessage, seq++);
  }
  benchmark::DoNotOptimize(q.next_time());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueHold);

// The auction-direct shape: a call-for-bids flush delivers to 100
// providers at one instant, and each delivery answers one message
// latency on, so both bursts are same-instant runs (one ladder key
// each).  4096 far-ahead timers sit among them and re-arm when they
// fire.  Items are events: one push and one pop each.
void BM_EventQueueFanout(benchmark::State& state) {
  constexpr std::size_t kTimers = 4096;
  constexpr std::size_t kBurst = 100;
  constexpr double kLatency = 0.1;
  sim::Rng rng(7);
  std::vector<double> far(1024);
  for (auto& t : far) t = rng.uniform(1e3, 1e4);
  sim::EventQueue q;
  sim::EventSeq seq = 0;
  const auto arm_timer = [&](double now) {
    const double due = now + far[seq % far.size()];
    push_noop(q, due, sim::EventPriority::kControl, seq++);
  };
  for (std::size_t i = 0; i < kTimers; ++i) arm_timer(0.0);
  double now = 0.0;
  std::int64_t events = 0;
  for (auto _ : state) {
    for (std::size_t i = 0; i < kBurst; ++i) {
      push_noop(q, now + kLatency, sim::EventPriority::kMessage, seq++);
    }
    // The deliveries, each pushing its answer, then the answers; a timer
    // that falls due meanwhile fires and re-arms.
    sim::EventRecord event;
    for (std::size_t left = 2 * kBurst; left > 0;) {
      const sim::FelKey key = q.pop(event);
      now = sim::fel_time_of(key);
      ++events;
      if (sim::fel_priority_of(key) == sim::EventPriority::kControl) {
        arm_timer(now);
        continue;
      }
      if (--left >= kBurst) {
        push_noop(q, now + kLatency, sim::EventPriority::kMessage, seq++);
      }
    }
    benchmark::DoNotOptimize(now);
  }
  state.SetItemsProcessed(events);
}
BENCHMARK(BM_EventQueueFanout);

void BM_SimulationEventDispatch(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    std::uint64_t acc = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.schedule_at(static_cast<double>(i), sim::EventKind::kOther,
                      [&acc] { ++acc; });
    }
    sim.run();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_SimulationEventDispatch);

// The observability overhead pair: dispatch with the probe slot present
// but null (runtime-disabled tracing — the default production state)
// vs. a live counting probe (what the Federation installs when
// ObsConfig::metrics is on).  The null-probe number must stay within 2%
// of BM_SimulationEventDispatch on the pre-observability seed; see
// bench/README.md "Observability".
void BM_SimulationEventDispatchProbed(benchmark::State& state) {
  const bool live = state.range(0) != 0;
  for (auto _ : state) {
    sim::Simulation sim;
    std::uint64_t probed = 0;
    if (live) {
      sim.set_dispatch_probe(
          [](void* ctx, sim::SimTime) {
            ++*static_cast<std::uint64_t*>(ctx);
          },
          &probed);
    }
    std::uint64_t acc = 0;
    for (int i = 0; i < 10000; ++i) {
      sim.schedule_at(static_cast<double>(i), sim::EventKind::kOther,
                      [&acc] { ++acc; });
    }
    sim.run();
    benchmark::DoNotOptimize(acc);
    benchmark::DoNotOptimize(probed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          10000);
}
BENCHMARK(BM_SimulationEventDispatchProbed)
    ->Arg(0)   // runtime-off (null probe)
    ->Arg(1);  // live counting probe

/// The least a DirectTransport needs: a ledger, the specs, a counting
/// delivery sink and lottery streams, over its own Simulation.
class CountingContext final : public transport::TransportContext {
 public:
  CountingContext(core::FederationConfig cfg, std::size_t n)
      : cfg_(std::move(cfg)),
        specs_(cluster::replicated_specs(n)),
        ledger_(n) {}

  const core::FederationConfig& config() const override { return cfg_; }
  sim::Simulation& sim() override { return sim_; }
  core::MessageLedger& ledger() override { return ledger_; }
  std::size_t sites() const override { return specs_.size(); }
  const cluster::ResourceSpec& spec_of(
      cluster::ResourceIndex index) const override {
    return specs_[index];
  }
  void deliver(const core::Message& msg) override { delivered += msg.to; }
  void message_dropped() override {}
  sim::Rng& drop_rng() override { return rng_; }
  sim::Rng& duplicate_rng() override { return rng_; }

  std::uint64_t delivered = 0;

 private:
  core::FederationConfig cfg_;
  std::vector<cluster::ResourceSpec> specs_;
  core::MessageLedger ledger_;
  sim::Simulation sim_;
  sim::Rng rng_;
};

// The warm point-to-point message path, end to end through the kernel:
// compose a kReply in place in a recycled slab slot, send it through a
// DirectTransport (ledger record, loss lottery, delay, one posted
// delivery event), dispatch the event and deliver the body in place.
// Items are messages.
void BM_DirectUnicast(benchmark::State& state) {
  auto cfg = core::make_config(core::SchedulingMode::kEconomy);
  cfg.network_latency = 1.0;
  CountingContext ctx(cfg, 100);
  transport::DirectTransport direct(ctx, std::nullopt, nullptr);
  cluster::Job job;
  job.processors = 1;
  cluster::ResourceIndex to = 1;
  for (auto _ : state) {
    const core::Outgoing reply =
        direct.compose(core::MessageType::kReply, 0, to, job);
    reply->accept = true;
    reply->completion_estimate = 10.0;
    direct.unicast(reply);
    ctx.sim().step();
    to = to == 99 ? 1 : to + 1;
  }
  benchmark::DoNotOptimize(ctx.delivered);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DirectUnicast);

void BM_TracedEndToEndAuction(benchmark::State& state) {
  // Full two-day auction run with every observability facility on:
  // the end-to-end cost of tracing a real experiment (spans + metrics +
  // forensics), against BM_EndToEndTwoDayEconomy-style baselines.
  auto cfg = core::make_config(core::SchedulingMode::kAuction);
  cfg.obs.trace = state.range(0) != 0;
  cfg.obs.metrics = state.range(0) != 0;
  cfg.obs.forensics = state.range(0) != 0;
  for (auto _ : state) {
    const auto r = core::run_experiment(cfg, 8, 30);
    benchmark::DoNotOptimize(r.total_messages);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2662);
}
BENCHMARK(BM_TracedEndToEndAuction)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_AvailabilityReserve(benchmark::State& state) {
  sim::Rng rng(7);
  for (auto _ : state) {
    cluster::AvailabilityProfile p(1024);
    for (int i = 0; i < 1000; ++i) {
      const auto procs = static_cast<std::uint32_t>(rng.uniform_int(1, 256));
      const double dur = rng.uniform(1.0, 500.0);
      const double start = p.earliest_start(rng.uniform(0.0, 1e4), procs, dur);
      p.reserve(start, start + dur, procs);
    }
    benchmark::DoNotOptimize(p.step_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1000);
}
BENCHMARK(BM_AvailabilityReserve);

// One auction round in the live shape of the 100-cluster auction runs: a
// pooled 97-bidder book reopened in cheapest-first solicitation order,
// every bid added in that order, the book ranked, and the first award
// taken (a run tries about one award per book).  Items are bids.
void BM_AuctionBook(benchmark::State& state) {
  constexpr std::size_t kBidders = 97;
  sim::Rng rng(11);
  std::vector<cluster::ResourceIndex> clusters(100);
  std::iota(clusters.begin(), clusters.end(), cluster::ResourceIndex{0});
  for (std::size_t i = clusters.size() - 1; i > 0; --i) {
    std::swap(clusters[i], clusters[rng.uniform_int(0, i)]);
  }
  std::vector<federation::ParticipantId> solicited(
      clusters.begin(), clusters.begin() + kBidders);
  std::vector<market::Bid> bids;
  for (const federation::ParticipantId bidder : solicited) {
    bids.push_back(market::Bid{bidder, rng.uniform(10.0, 100.0),
                               rng.uniform(100.0, 1000.0), true});
  }
  cluster::Job job;
  job.budget = 80.0;
  job.deadline = 900.0;
  const market::AuctionEngine engine(market::ClearingRule::kVickrey, true,
                                     true);
  market::AuctionBook book;
  cluster::JobId id = 0;
  for (auto _ : state) {
    book.reopen(id++, solicited);
    for (const market::Bid& bid : bids) book.add(bid);
    const market::Ranking ranking = engine.rank(job, book.bids());
    benchmark::DoNotOptimize(ranking.front().payment);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBidders));
}
BENCHMARK(BM_AuctionBook);

void BM_DirectoryRankedQuery(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  directory::FederationDirectory dir;
  const auto specs = cluster::replicated_specs(n);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    dir.subscribe(directory::Quote::from_spec(
        static_cast<cluster::ResourceIndex>(i), specs[i]));
  }
  std::uint32_t r = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dir.query(directory::OrderBy::kCheapest,
                  1 + (r++ % static_cast<std::uint32_t>(n))));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DirectoryRankedQuery)->Arg(8)->Arg(50);

void BM_EndToEndTwoDayEconomy(benchmark::State& state) {
  const auto cfg = core::make_config(core::SchedulingMode::kEconomy);
  for (auto _ : state) {
    const auto r = core::run_experiment(cfg, 8, 50);
    benchmark::DoNotOptimize(r.total_messages);
  }
  // 2662 jobs per run: report jobs/second.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2662);
}
BENCHMARK(BM_EndToEndTwoDayEconomy)->Unit(benchmark::kMillisecond);

void BM_EndToEndScaling50(benchmark::State& state) {
  const auto cfg = core::make_config(core::SchedulingMode::kEconomy);
  for (auto _ : state) {
    const auto r = core::run_experiment(cfg, 50, 50);
    benchmark::DoNotOptimize(r.total_messages);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          (2662 * 50 / 8));
}
BENCHMARK(BM_EndToEndScaling50)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
