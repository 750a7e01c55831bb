#include "core/federation.hpp"

#include <algorithm>
#include <utility>

#include "economy/cost_model.hpp"
#include "overlay/node_id.hpp"
#include "sim/check.hpp"

namespace gridfed::core {

Federation::Federation(FederationConfig config,
                       std::vector<cluster::ResourceSpec> specs)
    : cfg_(config),
      specs_(std::move(specs)),
      ledger_(specs_.empty() ? 1 : specs_.size()),
      bank_(specs_.empty() ? 1 : specs_.size()),
      util_at_window_(specs_.size(), 0.0),
      drop_rng_(sim::Rng::stream(config.seed, "message-drop")),
      dup_rng_(sim::Rng::stream(config.seed, "message-dup")) {
  GF_EXPECTS(!specs_.empty());
  GF_EXPECTS(cfg_.window > 0.0);
  GF_EXPECTS(cfg_.message_drop_rate >= 0.0 && cfg_.message_drop_rate < 1.0);
  GF_EXPECTS(cfg_.transport.duplicate_rate >= 0.0 &&
             cfg_.transport.duplicate_rate < 1.0);
  GF_EXPECTS(cfg_.transport.tree_fanout >= 1);
  GF_EXPECTS(cfg_.transport.tree_epoch >= 0.0);
  // The WAN model moves into the transport below; it is built first so
  // the timeout sanity checks can see the worst-case latency.
  std::optional<network::LatencyModel> wan;
  if (cfg_.wan) {
    wan.emplace(*cfg_.wan, specs_);
  }
  // Lossy enquiries need timeouts to make progress, and the timeout must
  // outlast an enquiry+reply round trip: two point-to-point hops on
  // either transport (the tree relays only kBid; every kNegotiate,
  // kAward and kReply goes point to point).
  GF_EXPECTS(cfg_.message_drop_rate == 0.0 || cfg_.negotiate_timeout > 0.0);
  const sim::SimTime worst_latency =
      wan ? wan->max_latency() : cfg_.network_latency;
  GF_EXPECTS(cfg_.negotiate_timeout == 0.0 ||
             cfg_.negotiate_timeout > 2.0 * worst_latency);
  const bool auction = cfg_.mode == SchedulingMode::kAuction;
  // Auction books close on completeness; a dropped bid would hold one open
  // forever unless the bid timeout clears it.  A nonzero timeout must also
  // outlast a call-for-bids + bid round trip — including the tree
  // transport's fan-out epoch, which may hold the call-for-bids back,
  // and the relayed hops of both legs — or every book clears empty.
  if (auction) {
    GF_EXPECTS(cfg_.message_drop_rate == 0.0 || cfg_.auction.bid_timeout > 0.0);
    const bool tree = cfg_.transport.kind == transport::TransportKind::kTree;
    const double tree_depth = static_cast<double>(std::max(
        1u,
        transport::tree_depth(specs_.size(), cfg_.transport.tree_fanout)));
    const sim::SimTime fanout_hold = tree ? cfg_.transport.tree_epoch : 0.0;
    const double round_trip_hops = tree ? 4.0 * tree_depth : 2.0;
    GF_EXPECTS(cfg_.auction.bid_timeout == 0.0 ||
               cfg_.auction.bid_timeout >
                   round_trip_hops * worst_latency + fanout_hold);
  }

  // The observability umbrella goes up before any instrumented layer is
  // wired: each layer keeps the pointer from its constructor on (the
  // coalition manager emits formation records from its constructor).
  // One extra per-participant slot aggregates coalition participants,
  // whose ids live outside the cluster index space.
  if (cfg_.obs.any()) {
    std::vector<std::string> tracks;
    tracks.reserve(specs_.size());
    for (const auto& spec : specs_) tracks.push_back(spec.name);
    observer_ = std::make_unique<obs::Observer>(cfg_.obs, tracks,
                                                specs_.size() + 1);
    if (obs::MetricsRegistry* metrics = observer_->metrics()) {
      // Each sample's message/byte columns come straight from the
      // authoritative ledger (never double-counted by instrumentation),
      // so the closing sample equals FederationResult's totals exactly.
      metrics->set_ledger_sampler([this](obs::MetricsSample& sample) {
        for (std::size_t t = 0; t < kMessageTypeCount; ++t) {
          sample.msgs_by_type[t] =
              ledger_.count_of(static_cast<MessageType>(t));
          sample.bytes_by_type[t] =
              ledger_.bytes_of(static_cast<MessageType>(t));
        }
        sample.total_msgs = ledger_.total();
        sample.total_bytes = ledger_.total_bytes();
        sample.relay_msgs = ledger_.relay_total();
        std::uint64_t open = 0;
        for (const auto& agent : gfas_) {
          open += agent->scheduling_policy().open_auctions();
        }
        sample.gauges[static_cast<std::size_t>(obs::Gauge::kOpenBooks)] =
            open;
      });
    }
  }

  // The coalition extension: latency-proximity buckets over the overlay
  // ring keys — the same ChordRing order the TreeTransport lays its heap
  // over, so ring-adjacent (and thus coalesced) clusters are exactly the
  // ones sharing cheap tree edges.  Only meaningful in auction mode; the
  // registry also tells the tree's convergecast which participant each
  // bid speaks for.  Built before the agents, because each auction
  // policy reads the manager pointer once, in its constructor.  The
  // manager's constructor needs nothing the agents provide: only the
  // site count, the ring keys and the observer.
  if (cfg_.coalitions.enabled && auction) {
    std::vector<std::uint64_t> ring_keys;
    ring_keys.reserve(specs_.size());
    for (const auto& spec : specs_) {
      ring_keys.push_back(overlay::ring_hash(spec.name));
    }
    // The base conversion must happen here (the base is private, so
    // make_unique's forwarding could not perform it).
    coalition::CoalitionContext& coalition_ctx = *this;
    coalitions_ = std::make_unique<coalition::CoalitionManager>(
        coalition_ctx, cfg_.coalitions, ring_keys, observer_.get());
  }

  lrms_.reserve(specs_.size());
  gfas_.reserve(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    const auto index = static_cast<cluster::ResourceIndex>(i);
    lrms_.push_back(std::make_unique<cluster::Lrms>(sim_, specs_[i], index,
                                                    cfg_.queue_policy));
    gfas_.push_back(std::make_unique<Gfa>(sim_, index, *lrms_.back(), dir_,
                                          *this, observer_.get()));
    // Wire cluster completions into the owning agent.
    Gfa* agent = gfas_.back().get();
    lrms_.back()->set_completion_handler(
        [agent](const cluster::CompletedJob& done) {
          agent->on_lrms_completion(done);
        });
    // subscribe: the agent joins the federation and advertises its quote.
    dir_.subscribe(directory::Quote::from_spec(index, specs_[i]));
  }
  // The delivery substrate, wired last: it delivers into the agents and
  // owns the WAN model from here on.
  transport_ = transport::make_transport(
      *this, std::move(wan), observer_.get(),
      coalitions_ ? &coalitions_->registry() : nullptr);
  // The membership runtime (gossip dissemination + scripted churn).
  // Dynamic membership needs timeouts to make progress the same way a
  // lossy network does: an enquiry parked on a crashed peer is only
  // ever resolved by its negotiate timeout, and an auction book
  // soliciting one only closes on its bid timeout.
  if (cfg_.membership.active()) {
    GF_EXPECTS(cfg_.membership.gossip_period > 0.0);
    GF_EXPECTS(cfg_.membership.gossip_fanout >= 1);
    GF_EXPECTS(cfg_.membership.suspect_after >= 1);
    GF_EXPECTS(cfg_.membership.dead_after >= 1);
    for (const membership::ChurnEvent& ev : cfg_.membership.churn.events) {
      GF_EXPECTS(ev.site < specs_.size());
      GF_EXPECTS(ev.time > 0.0);
    }
    GF_EXPECTS(cfg_.mode == SchedulingMode::kIndependent ||
               cfg_.negotiate_timeout > 0.0);
    if (auction) GF_EXPECTS(cfg_.auction.bid_timeout > 0.0);
    membership::MembershipContext& membership_ctx = *this;
    membership_ = std::make_unique<membership::MembershipService>(
        membership_ctx, observer_.get());
    membership_->start();
  }

  if (cfg_.dynamic_pricing) {
    pricers_.reserve(specs_.size());
    pricer_last_area_.assign(specs_.size(), 0.0);
    for (const auto& spec : specs_) {
      pricers_.emplace_back(spec.quote, cfg_.pricing);
    }
  }
  arm_periodic_behaviours();
}

Federation::~Federation() = default;

Gfa& Federation::gfa(cluster::ResourceIndex i) {
  GF_EXPECTS(i < gfas_.size());
  return *gfas_[i];
}

cluster::Lrms& Federation::lrms(cluster::ResourceIndex i) {
  GF_EXPECTS(i < lrms_.size());
  return *lrms_[i];
}

void Federation::arm_periodic_behaviours() {
  // Utilization snapshot at the window boundary (jobs keep running, but
  // Tables 2/3 and Fig 4 report utilization over the window).
  sim_.schedule_at(cfg_.window, sim::EventKind::kPeriodic, [this] {
    for (std::size_t i = 0; i < lrms_.size(); ++i) {
      util_at_window_[i] = lrms_[i]->utilization().utilization(cfg_.window);
    }
  });

  // Coordination extension: periodic load-hint refresh.  Members that
  // crashed or left stop publishing (and may already be unsubscribed).
  if (cfg_.use_load_hints) {
    for (sim::SimTime t = cfg_.load_hint_period; t <= cfg_.window;
         t += cfg_.load_hint_period) {
      sim_.schedule_at(t, sim::EventKind::kPeriodic, [this] {
        for (std::size_t i = 0; i < gfas_.size(); ++i) {
          const auto index = static_cast<cluster::ResourceIndex>(i);
          if (membership_ && !membership_->live(index)) continue;
          gfas_[i]->publish_load_hint();
        }
      });
    }
  }

  // Metrics epoch sampler.  Pure reads: the extra control events shift
  // event sequence numbers but never reorder or perturb the existing
  // stream, so enabled runs still reproduce the golden outcomes.  A
  // final sample after the run drains closes the series (see run()).
  if (observer_ && observer_->metrics() != nullptr) {
    for (sim::SimTime t = obs::kMetricsEpoch; t <= cfg_.window;
         t += obs::kMetricsEpoch) {
      sim_.schedule_at(t, sim::EventKind::kPeriodic, [this] {
        observer_->metrics()->take_sample(sim_.now());
      });
    }
  }

  // Dynamic-pricing extension: periodic repricing from recent load.
  if (cfg_.dynamic_pricing) {
    const sim::SimTime period = cfg_.pricing.period;
    for (sim::SimTime t = period; t <= cfg_.window; t += period) {
      sim_.schedule_at(t, sim::EventKind::kPeriodic, [this, period] {
        for (std::size_t i = 0; i < lrms_.size(); ++i) {
          if (membership_ &&
              !membership_->live(static_cast<cluster::ResourceIndex>(i))) {
            continue;  // a gone member republishes nothing
          }
          const double area = lrms_[i]->utilization().busy_area(sim_.now());
          const double window_area =
              static_cast<double>(specs_[i].processors) * period;
          const double recent_load = std::min(
              1.0, (area - pricer_last_area_[i]) / window_area);
          pricer_last_area_[i] = area;
          const double new_quote = pricers_[i].reprice(recent_load);
          specs_[i].quote = new_quote;
          dir_.update_price(static_cast<cluster::ResourceIndex>(i),
                            new_quote);
        }
      });
    }
  }
}

void Federation::load_workload(
    const std::vector<workload::ResourceTrace>& traces,
    std::optional<workload::PopulationProfile> profile) {
  GF_EXPECTS(!ran_);
  std::size_t jobs = arrivals_.size();
  for (const auto& trace : traces) jobs += trace.jobs.size();
  arrivals_.reserve(jobs);
  for (const auto& trace : traces) {
    GF_EXPECTS(trace.resource < specs_.size());
    const auto& origin_spec = specs_[trace.resource];
    for (const auto& raw : trace.jobs) {
      cluster::Job job =
          workload::to_job(raw, next_job_id_++, trace.resource, origin_spec);
      economy::fabricate_qos(job, origin_spec, cfg_.cost_model, cfg_.qos);
      if (profile) {
        job.opt = profile->preference(job.origin, job.user, cfg_.seed);
      }
      ++jobs_loaded_;
      arrivals_.push_back(std::move(job));
    }
  }
  std::sort(arrivals_.begin(), arrivals_.end(), cluster::arrives_before);
}

void Federation::arm_arrival() {
  sim_.schedule_at(arrivals_[next_arrival_].submit, sim::EventKind::kArrival,
                   [this] {
                     const cluster::Job& job = arrivals_[next_arrival_++];
                     gfas_[job.origin]->submit_local(job);
                     if (next_arrival_ < arrivals_.size()) {
                       arm_arrival();
                     } else {
                       // The last arrival: free the storage (`= {}`
                       // would keep the capacity).
                       arrivals_ = std::vector<cluster::Job>();
                     }
                   });
}

FederationResult Federation::run() {
  GF_EXPECTS(!ran_);
  ran_ = true;
  outcomes_.reserve(jobs_loaded_);
  // The kernel dispatch probe: a captureless shim forwarding each
  // event's kind to the metrics registry, so the kernel never learns
  // about the obs layer.  Installed only when metrics are on — the dark
  // run keeps the probe null and pays one predicted branch per event.
  const auto probe = [](void* ctx, sim::SimTime) {
    Federation& fed = *static_cast<Federation*>(ctx);
    fed.observer_->metrics()->count_dispatch(fed.sim_.current_kind());
  };
  if (observer_ && observer_->metrics() != nullptr) {
    sim_.set_dispatch_probe(probe, this);
  }
  if (!arrivals_.empty()) arm_arrival();
  sim_.run();
  GF_ENSURES(next_arrival_ == jobs_loaded_);
  GF_ENSURES(outcomes_.size() == jobs_loaded_);
  // Drained: no message is left in flight, so every slab slot is free.
  GF_ENSURES(transport_->in_flight() == 0);
  // The closing sample: the queue has drained, so the series ends on
  // ledger columns equal to aggregate()'s FederationResult totals.
  if (observer_ && observer_->metrics() != nullptr) {
    observer_->metrics()->take_sample(sim_.now());
  }
  return aggregate();
}

void Federation::send(Outgoing msg) {
  GF_EXPECTS(msg->to < gfas_.size());
  transport_->unicast(msg);
}

std::uint64_t Federation::multicast(
    Outgoing msg, std::span<const cluster::ResourceIndex> targets,
    sim::SimTime not_after) {
  for (const cluster::ResourceIndex target : targets) {
    GF_EXPECTS(target < gfas_.size());
  }
  return transport_->multicast(msg, targets, not_after);
}

void Federation::deliver(const Message& msg) {
  GF_EXPECTS(msg.to < gfas_.size());
  if (membership_ != nullptr) {
    // A crashed destination receives nothing — the bytes were charged
    // (they crossed the wire) but they land in the void.  Left members
    // keep receiving: their in-flight work drains gracefully.
    if (membership_->crashed(msg.to)) return;
    if (msg.type == MessageType::kGossip) {
      membership_->on_gossip(msg);
      return;
    }
  }
  gfas_[msg.to]->receive(msg);
}

const cluster::ResourceSpec& Federation::spec_of(
    cluster::ResourceIndex index) const {
  GF_EXPECTS(index < specs_.size());
  return specs_[index];
}

sim::SimTime Federation::payload_staging_time(
    const cluster::Job& job, cluster::ResourceIndex site) const {
  const network::LatencyModel* wan = transport_->wan();
  if (wan == nullptr || site == job.origin) return 0.0;
  return wan->transfer_time(job.origin, site,
                            cluster::data_transferred(job,
                                                      specs_[job.origin]));
}

market::Bid Federation::member_bid(cluster::ResourceIndex member,
                                   const cluster::Job& job) {
  GF_EXPECTS(member < gfas_.size());
  if (membership_ != nullptr && !membership_->live(member)) {
    market::Bid bid;  // a gone member prices nothing: infeasible
    bid.bidder = member;
    return bid;
  }
  return gfas_[member]->provider_bid(job);
}

sim::SimTime Federation::member_admit(cluster::ResourceIndex member,
                                      const cluster::Job& job) {
  GF_EXPECTS(member < gfas_.size());
  if (membership_ != nullptr && !membership_->live(member)) {
    return sim::kTimeInfinity;  // a gone member admits nothing
  }
  return gfas_[member]->admit_remote(job);
}

// ---- membership::MembershipContext ------------------------------------------

void Federation::churn_crash(cluster::ResourceIndex site) {
  // Fail-stop, applied the instant the event fires: the agent drains its
  // in-flight state (each of its jobs still terminates exactly once) and
  // the LRMS kills every reservation in place.  Directory eviction and
  // the peers' orphan sweeps wait for the failure detector — until
  // confirmation, peers keep soliciting the dead site and eat the
  // timeouts, which is exactly the degradation the churn sweep measures.
  gfas_[site]->on_crash();
  lrms_[site]->shutdown();
}

void Federation::churn_leave(cluster::ResourceIndex site) {
  // Graceful departure: announced, so the consequences apply at once —
  // no advertisement, no coalition seat, no relay duty.  In-flight work
  // involving the leaver drains normally (it stays a reachable
  // endpoint).
  gfas_[site]->on_leave();
  dir_.unsubscribe(site);
  if (coalitions_) coalitions_->on_member_departed(site, sim_.now());
  transport_->on_member_left(site);
}

void Federation::churn_join(cluster::ResourceIndex site) {
  lrms_[site]->restart();
  gfas_[site]->on_rejoin();
  dir_.subscribe(directory::Quote::from_spec(site, specs_[site]));
  if (coalitions_) coalitions_->on_member_rejoined(site, sim_.now());
  transport_->on_member_joined(site);
}

void Federation::member_confirmed_dead(cluster::ResourceIndex site) {
  // Detection converged on a genuine crash: evict the advertisement,
  // repair the overlay (replaying the solicitations the dead relay ate),
  // re-form its coalition, and let every live peer sweep the work it had
  // parked on the corpse.  Ascending peer order keeps the sweep
  // deterministic.
  if (!membership_->left(site)) dir_.unsubscribe(site);
  transport_->on_member_dead(site);
  if (coalitions_) coalitions_->on_member_departed(site, sim_.now());
  for (std::size_t i = 0; i < gfas_.size(); ++i) {
    const auto peer = static_cast<cluster::ResourceIndex>(i);
    if (peer == site) continue;
    gfas_[i]->on_peer_dead(site);
  }
}

void Federation::job_completed(const JobOutcome& outcome) {
  // A job the coalition layer placed settles as one share per member
  // (the SurplusRule split, budget-balanced by construction); everything
  // else settles solo.  via_coalition gates the split — a stale
  // placement note (the origin abandoned a lossy coalition award and
  // re-scheduled, possibly onto the very same member through a solo
  // path) must not divert a solo settlement — and the manager further
  // declines jobs whose note no longer matches the executor.
  const bool split =
      coalitions_ != nullptr && outcome.via_coalition &&
      coalitions_->settle(bank_, outcome.job.id, outcome.executed_on,
                          outcome.job.origin, outcome.job.user, outcome.cost);
  JobOutcome settled = outcome;
  settled.settled_participant = outcome.executed_on;
  settled.surplus_share = outcome.cost;
  if (split) {
    const coalition::SplitRecord& record = coalitions_->splits().back();
    // The record's own member snapshot, NOT the live registry: churn may
    // have re-formed the coalition between placement and settlement.
    const auto& members = record.members;
    settled.settled_participant = record.coalition.value;
    for (std::size_t m = 0; m < members.size(); ++m) {
      if (members[m] == record.executor) {
        settled.surplus_share = record.shares[m];
        break;
      }
    }
    GF_OBS(observer(), count(obs::Counter::kCoalitionSplits));
    if (observer_ != nullptr && observer_->forensics() != nullptr) {
      obs::SplitDecision decision;
      decision.t = sim_.now();
      decision.job = record.job;
      decision.coalition = record.coalition.value;
      decision.executor = record.executor;
      decision.executor_ask = record.executor_ask;
      decision.payment = record.payment;
      decision.shares.reserve(members.size());
      for (std::size_t m = 0; m < members.size(); ++m) {
        decision.shares.emplace_back(members[m], record.shares[m]);
      }
      observer_->forensics()->record_split(std::move(decision));
    }
  } else {
    bank_.settle(economy::Settlement{outcome.job.id, outcome.job.origin,
                                     outcome.executed_on, outcome.cost,
                                     outcome.job.user});
    // A job that settled outside the coalition path may still carry a
    // stale placement note (abandoned lossy award): drop it so notes
    // do not accumulate over the run.
    if (coalitions_ != nullptr) coalitions_->forget(outcome.job.id);
  }
  GF_OBS(observer(), count(obs::Counter::kJobsAccepted));
  outcomes_.push_back(std::move(settled));
}

void Federation::auction_report(const market::ClearingReport& report) {
  auction_stats_.record(report);
}

void Federation::job_rejected(const cluster::Job& job,
                              std::uint32_t negotiations,
                              std::uint64_t messages) {
  JobOutcome outcome;
  outcome.job = job;
  outcome.accepted = false;
  outcome.negotiations = negotiations;
  outcome.messages = messages;
  // A rejection may leave a stale coalition placement note behind (an
  // abandoned lossy award): drop it so notes do not accumulate.
  if (coalitions_ != nullptr) coalitions_->forget(outcome.job.id);
  GF_OBS(observer(), count(obs::Counter::kJobsRejected));
  outcomes_.push_back(std::move(outcome));
}

FederationResult Federation::aggregate() const {
  FederationResult result;
  result.mode = cfg_.mode;
  result.system_size = specs_.size();
  result.resources.resize(specs_.size());
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    auto& row = result.resources[i];
    row.name = specs_[i].name;
    row.utilization = util_at_window_[i];
    row.incentive = bank_.incentive(static_cast<cluster::ResourceIndex>(i));
    row.spent_by_home =
        bank_.spent_by_home(static_cast<cluster::ResourceIndex>(i));
    row.local_messages =
        ledger_.local_at(static_cast<cluster::ResourceIndex>(i));
    row.remote_messages =
        ledger_.remote_at(static_cast<cluster::ResourceIndex>(i));
    result.msgs_per_gfa.add(static_cast<double>(
        ledger_.total_at(static_cast<cluster::ResourceIndex>(i))));
  }

  for (const auto& outcome : outcomes_) {
    auto& row = result.resources[outcome.job.origin];
    const auto& origin_spec = specs_[outcome.job.origin];
    row.total_jobs += 1;
    result.total_jobs += 1;
    result.msgs_per_job.add(static_cast<double>(outcome.messages));
    result.negotiations_per_job.add(
        static_cast<double>(outcome.negotiations));

    if (outcome.accepted) {
      row.accepted += 1;
      result.total_accepted += 1;
      if (outcome.executed_on == outcome.job.origin) {
        row.processed_locally += 1;
      } else {
        row.migrated += 1;
        result.resources[outcome.executed_on].remote_processed += 1;
      }
      const double response = outcome.response_time();
      row.response_excl.add(response);
      row.budget_excl.add(outcome.cost);
      row.response_incl.add(response);
      row.budget_incl.add(outcome.cost);
      result.fed_response_excl.add(response);
      result.fed_budget_excl.add(outcome.cost);
      result.fed_response_incl.add(response);
      result.fed_budget_incl.add(outcome.cost);
    } else {
      row.rejected += 1;
      result.total_rejected += 1;
      // Paper Fig 8: rejected jobs contribute their *expected* response and
      // cost as if executed on the unloaded originating resource.
      const double est_response =
          cluster::execution_time(outcome.job, origin_spec, origin_spec);
      const double est_cost = economy::job_cost(outcome.job, origin_spec,
                                                origin_spec, cfg_.cost_model);
      row.response_incl.add(est_response);
      row.budget_incl.add(est_cost);
      result.fed_response_incl.add(est_response);
      result.fed_budget_incl.add(est_cost);
    }
  }

  result.total_messages = ledger_.total();
  result.total_message_bytes = ledger_.total_bytes();
  result.overlay_relay_messages = ledger_.relay_total();
  result.bids_pruned = transport_->bids_pruned();
  result.bid_prune_bytes_saved = transport_->bid_prune_bytes_saved();
  for (std::size_t t = 0; t < kMessageTypeCount; ++t) {
    result.messages_by_type[t] =
        ledger_.count_of(static_cast<MessageType>(t));
    result.bytes_by_type[t] = ledger_.bytes_of(static_cast<MessageType>(t));
  }
  result.directory_traffic = dir_.traffic();
  result.total_incentive = bank_.total();
  result.auctions = auction_stats_;
  if (coalitions_) {
    result.coalitions_formed = coalitions_->registry().coalitions();
    result.coalition_local_messages = coalitions_->local_messages();
    result.coalition_awards = coalitions_->splits().size();
    for (const auto& split : coalitions_->splits()) {
      result.coalition_surplus +=
          split.payment - std::min(split.executor_ask, split.payment);
    }
  }
  return result;
}

}  // namespace gridfed::core
