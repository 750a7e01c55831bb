#include "policy/auction_policy.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "coalition/coalition_manager.hpp"
#include "economy/cost_model.hpp"
#include "market/bid_pricing.hpp"
#include "market/bid_scorer.hpp"
#include "sim/check.hpp"

namespace gridfed::policy {

AuctionPolicy::AuctionPolicy(SchedulerContext& ctx)
    : SchedulingPolicy(ctx), dbc_fallback_(ctx) {}

AuctionPolicy::AuctionJobState* AuctionPolicy::state_of(
    const core::Pending& p) {
  return static_cast<AuctionJobState*>(p.policy_state.get());
}

AuctionPolicy::AuctionJobState& AuctionPolicy::ensure_state(core::Pending& p) {
  if (p.policy_state == nullptr) {
    p.policy_state = std::make_unique<AuctionJobState>();
  }
  return *state_of(p);
}

federation::ParticipantId AuctionPolicy::participant_of(
    cluster::ResourceIndex resource) {
  return coalition::participant_of(ctx_.coalitions(), resource);
}

cluster::ResourceIndex AuctionPolicy::representative_of(
    federation::ParticipantId participant) {
  return coalition::representative_of(ctx_.coalitions(), participant);
}

void AuctionPolicy::schedule(core::Pending p) {
  // Lifecycle: open an auction, then work through the cleared award
  // ranking, then (if everything declined) the DBC fallback walk.
  const AuctionJobState* st = state_of(p);
  if (st != nullptr && st->dbc_fallback) {
    dbc_fallback_.schedule(std::move(p));
  } else if (st != nullptr && !st->awards.empty()) {
    advance_awards(std::move(p));
  } else {
    open_auction(std::move(p));
  }
}

double AuctionPolicy::settled_cost(const core::Pending& p,
                                   cluster::ResourceIndex exec) const {
  // An in-flight award settles its cleared payment; the DBC fallback (and
  // anything else) the posted price.
  const AuctionJobState* st = state_of(p);
  if (st != nullptr && st->awarding()) return st->award_payment;
  return SchedulingPolicy::settled_cost(p, exec);
}

// ---- origin side ------------------------------------------------------------

void AuctionPolicy::open_auction(core::Pending p) {
  const auto& cfg = ctx_.config();
  const auto& acfg = cfg.auction;
  // Candidate providers in cheapest-first directory order: deterministic
  // and compatible with the load-hint filter.  One metered bulk query
  // replaces a per-rank query walk (the results ride back on a single
  // overlay route), which is what keeps directory traffic per auction
  // flat as the federation grows.
  directory::QueryFilter filter;
  filter.min_processors = p.job.processors;
  filter.exclude = ctx_.self();  // origin enters for free below
  if (cfg.use_load_hints) filter.max_load_hint = cfg.load_hint_threshold;
  ctx_.directory().query_top_k(directory::OrderBy::kCheapest,
                               acfg.max_bidders, filter, scratch_quotes_);

  const bool origin_enters =
      acfg.origin_bids && p.job.processors <= ctx_.lrms().spec().processors;

  // One book entrant per *participant*: the first (cheapest) quoted
  // member claims its coalition's slot, and the coalition is addressed
  // on the wire through its representative only — the group-addressed
  // dissemination that makes a coalition cost one delivery however many
  // clusters it federates.  A participant the origin itself represents
  // enters a message-free local joint bid instead.  With the coalition
  // layer off every participant is its own singleton and this reduces
  // exactly to the old per-cluster list.  Quotes name distinct clusters
  // and a singleton's id is its cluster index, so only coalition ids can
  // repeat.
  scratch_entrants_.clear();
  scratch_targets_.clear();
  bool own_group_enters = false;
  for (const directory::Quote& quote : scratch_quotes_) {
    const federation::ParticipantId pid = participant_of(quote.resource);
    if (pid.is_coalition() &&
        std::find(scratch_entrants_.begin(), scratch_entrants_.end(), pid) !=
            scratch_entrants_.end()) {
      continue;  // this coalition already holds a book slot
    }
    scratch_entrants_.push_back(pid);
    const cluster::ResourceIndex rep = representative_of(pid);
    if (rep == ctx_.self()) {
      own_group_enters = true;
    } else {
      scratch_targets_.push_back(rep);
    }
  }
  const std::size_t n_remote = scratch_targets_.size();
  if (origin_enters) scratch_entrants_.push_back(ctx_.self());
  market::AuctionBook book = book_pool_.acquire(p.job.id, scratch_entrants_);
  if (own_group_enters) {
    // The origin speaks for a solicited coalition: the joint bid over
    // its (sibling) members enters locally, like the origin's own bid.
    book.add(ctx_.coalitions()->joint_bid(participant_of(ctx_.self()),
                                          p.job));
  }
  if (origin_enters) book.add(make_bid(p.job));  // message-free local bid

  p.negotiations += static_cast<std::uint32_t>(n_remote);  // remote enquiries
  const bool batched = acfg.batch_solicitations && n_remote > 0;
  if (!batched && n_remote > 0) {
    // One multicast covers every provider (the per-job broadcast): the
    // direct transport unrolls it into the seed's per-provider sends
    // and returns their count; the tree transport queues one fan-out,
    // bounded by the same slack fraction the batched flush applies, and
    // books its shared edges in the ledger's relay counters (returns 0).
    const sim::SimTime slack =
        std::max(0.0, p.job.absolute_deadline() - ctx_.now());
    const sim::SimTime not_after =
        ctx_.now() + acfg.solicit_hold_slack_fraction * slack;
    core::Message msg{core::MessageType::kCallForBids, ctx_.self(),
                      ctx_.self(), p.job};
    p.messages += ctx_.multicast(std::move(msg), scratch_targets_,
                                 not_after);
  }

  const cluster::JobId id = p.job.id;
  const auto [it, inserted] =
      auctions_.emplace(id, OpenAuction{std::move(p), std::move(book)});
  GF_EXPECTS(inserted);  // a job runs at most one auction round
  // The auction span opens before the synchronous-clear check so an
  // empty book still traces as a (zero-width) round.
  GF_OBS(ctx_.observer(),
         begin(ctx_.now(), obs::SpanKind::kAuction, ctx_.self(), id,
               it->second.book.solicited(), n_remote));
  GF_OBS(ctx_.observer(), count(obs::Counter::kAuctionsOpened));
  if (it->second.book.complete()) {
    // No outstanding bidders (possibly an empty book): clear in place.
    clear_auction(id);
    return;
  }
  if (batched) {
    // The call-for-bids leave in the next flush; the bid timeout arms
    // there too (the book is not on the wire yet).
    queue_solicitation(id);
    return;
  }
  if (acfg.bid_timeout > 0.0) {
    ctx_.sim().schedule_in(acfg.bid_timeout, sim::EventPriority::kControl,
                           [this, id] { on_bid_timeout(id); });
  }
}

void AuctionPolicy::queue_solicitation(cluster::JobId id) {
  const auto& acfg = ctx_.config().auction;
  const auto it = auctions_.find(id);
  GF_EXPECTS(it != auctions_.end());
  // Hold back at most the batch window, and never more than a fraction
  // of the job's remaining deadline slack: tight jobs flush (almost)
  // immediately — and carry every other queued job out with them.
  const sim::SimTime slack = std::max(
      0.0, it->second.pending.job.absolute_deadline() - ctx_.now());
  const sim::SimTime hold = std::min(
      acfg.solicit_batch_window, acfg.solicit_hold_slack_fraction * slack);
  const sim::SimTime deadline = ctx_.now() + hold;
  solicit_queue_.push_back(id);
  if (deadline < flush_deadline_) flush_deadline_ = deadline;
  ctx_.sim().schedule_at(deadline, sim::EventPriority::kControl,
                         [this] { maybe_flush_solicitations(); });
}

void AuctionPolicy::maybe_flush_solicitations() {
  // Each queued job arms its own wake-up; only the one at the earliest
  // deadline flushes (stale wake-ups find the deadline moved or the
  // queue already empty).
  if (solicit_queue_.empty()) return;
  if (ctx_.now() < flush_deadline_) return;
  flush_solicitations();
}

void AuctionPolicy::flush_solicitations() {
  const auto& acfg = ctx_.config().auction;
  // One pass over the queue builds per-provider job buckets; providers
  // keep first-seen (cheapest-first) order so the wire order stays
  // deterministic.  scratch_providers_[i] is the provider of
  // scratch_buckets_[i] (bucket_of_ maps back); the buckets are members
  // so flushes reuse their capacity instead of reallocating.  The same
  // pass derives the transport's fan-out bound: the tree transport may
  // batch the call-for-bids further, but never past the slack fraction
  // this policy applies to its own hold.
  scratch_providers_.clear();
  for (auto& bucket : scratch_buckets_) bucket.clear();
  sim::SimTime not_after = sim::kTimeInfinity;
  for (const cluster::JobId id : solicit_queue_) {
    const auto it = auctions_.find(id);
    if (it == auctions_.end()) continue;  // cleared while queued
    const sim::SimTime slack = std::max(
        0.0, it->second.pending.job.absolute_deadline() - ctx_.now());
    not_after = std::min(
        not_after, ctx_.now() + acfg.solicit_hold_slack_fraction * slack);
    for (const federation::ParticipantId pid :
         it->second.book.solicited_list()) {
      // Wire address: the participant's representative; entrants the
      // origin itself covers (its own bid, a coalition it represents)
      // were answered locally at open time.
      const cluster::ResourceIndex r = representative_of(pid);
      if (r == ctx_.self()) continue;
      if (r >= bucket_of_.size()) bucket_of_.resize(r + 1, kNoBucket);
      std::uint32_t& bucket = bucket_of_[r];
      if (bucket == kNoBucket) {
        bucket = static_cast<std::uint32_t>(scratch_providers_.size());
        scratch_providers_.push_back(r);
        if (scratch_buckets_.size() < scratch_providers_.size()) {
          scratch_buckets_.emplace_back();
        }
      }
      scratch_buckets_[bucket].push_back(&it->second.pending.job);
    }
  }
  for (const cluster::ResourceIndex r : scratch_providers_) {
    bucket_of_[r] = kNoBucket;
  }
  GF_OBS(ctx_.observer(),
         instant(ctx_.now(), obs::SpanKind::kSolicitFlush, ctx_.self(), 0,
                 scratch_providers_.size(), solicit_queue_.size()));
  GF_OBS(ctx_.observer(), count(obs::Counter::kSolicitFlushes));
  // Emit one multicast per maximal run of providers sharing a job
  // bucket.  With the default full-book solicitation every provider
  // shares one bucket, so the flush writes the job list into the arena
  // ONCE and all 50 provider messages view it — no per-provider Job
  // copies.  A provider with held awards is carved into its own message
  // (its payload differs), preserving the per-provider wire order.
  std::shared_ptr<transport::MessageArena> arena;
  std::size_t i = 0;
  while (i < scratch_providers_.size()) {
    const std::size_t j = solicit_run_end(i);
    if (!arena) arena = std::make_shared<transport::MessageArena>();
    core::Message msg;
    msg.type = core::MessageType::kCallForBids;
    msg.from = ctx_.self();
    msg.batch_jobs = arena->append(scratch_buckets_[i]);
    msg.arena = arena;
    msg.job = msg.batch_jobs.front();
    // Awards held for this run's (single) provider ride the flush for
    // free: their text joins this message and the Pending parks without
    // a wire message of its own (the reply still counts).
    for (auto& held : held_awards_) {
      if (held.dispatched || held.target != scratch_providers_[i]) continue;
      msg.batch_awards.push_back(
          core::PiggybackedAward{held.pending.job, held.payment});
      ++counters_.awards_piggybacked;
      held.dispatched = true;
      ctx_.park_award(std::move(held.pending), held.target);
    }
    // Attribute the run's wire cost to the batch's first job so the
    // per-job counters still sum to the ledger total (on the direct
    // transport; the tree's shared edge messages return 0 and live in
    // the ledger's relay counters instead).  A run carrying piggybacked
    // awards must leave NOW: an award is an admission re-check whose
    // reply timeout is already armed, so the transport gets no room to
    // hold it back (the epoch hold that is fine for solicitations would
    // systematically expire awards).
    const cluster::JobId front_id = msg.job.id;
    const sim::SimTime run_not_after =
        msg.batch_awards.empty() ? not_after : ctx_.now();
    const std::uint64_t wire = ctx_.multicast(
        std::move(msg),
        std::span<const cluster::ResourceIndex>(
            scratch_providers_.data() + i, j - i),
        run_not_after);
    auctions_.find(front_id)->second.pending.messages += wire;
    i = j;
  }
  // Held awards whose provider saw no solicitation after all (its
  // auctions cleared while the award waited) go out standalone: every
  // hold was taken against THIS flush, so nothing waits beyond it.
  for (auto& held : held_awards_) {
    if (held.dispatched) continue;
    ctx_.send_award(std::move(held.pending), held.target, held.payment);
  }
  held_awards_.clear();
  if (acfg.bid_timeout > 0.0) {
    for (const cluster::JobId id : solicit_queue_) {
      if (auctions_.find(id) == auctions_.end()) continue;
      ctx_.sim().schedule_in(acfg.bid_timeout, sim::EventPriority::kControl,
                             [this, id] { on_bid_timeout(id); });
    }
  }
  solicit_queue_.clear();
  flush_deadline_ = sim::kTimeInfinity;
}

void AuctionPolicy::on_bid_timeout(cluster::JobId id) {
  // Deadline for the book: clear with whatever arrived.  A no-op when every
  // bid beat the timeout (the book already cleared and erased itself).
  clear_auction(id);
}

bool AuctionPolicy::flush_solicits(
    federation::ParticipantId participant) const {
  for (const cluster::JobId id : solicit_queue_) {
    const auto it = auctions_.find(id);
    if (it == auctions_.end()) continue;  // cleared while queued
    const auto& list = it->second.book.solicited_list();
    if (std::find(list.begin(), list.end(), participant) != list.end()) {
      return true;
    }
  }
  return false;
}

bool AuctionPolicy::has_held_award(cluster::ResourceIndex provider) const {
  for (const HeldAward& held : held_awards_) {
    if (!held.dispatched && held.target == provider) return true;
  }
  return false;
}

std::size_t AuctionPolicy::solicit_run_end(std::size_t i) const {
  // A provider with held awards gets a message of its own (the award
  // text joins the payload); otherwise the run extends while the job
  // buckets stay equal and no award interrupts it.
  std::size_t j = i + 1;
  if (has_held_award(scratch_providers_[i])) return j;
  while (j < scratch_providers_.size() &&
         !has_held_award(scratch_providers_[j]) &&
         scratch_buckets_[j] == scratch_buckets_[i]) {
    ++j;
  }
  return j;
}


void AuctionPolicy::clear_auction(cluster::JobId id) {
  const auto it = auctions_.find(id);
  if (it == auctions_.end()) return;  // already cleared
  OpenAuction auction = std::move(it->second);
  auctions_.erase(it);

  const auto& cfg = ctx_.config();
  const market::AuctionEngine engine(
      cfg.auction.clearing, cfg.auction.scoring, cfg.auction.score_time_weight,
      cfg.enforce_budget, cfg.enforce_deadline);
  core::Pending p = std::move(auction.pending);
  AuctionJobState& st = ensure_state(p);
  st.awards = engine.clear(p.job, auction.book.bids());
  st.next_award = 0;

  market::ClearingReport report;
  report.job = p.job.id;
  report.solicited = auction.book.solicited();
  // Tombstoned answers count as bids received: the providers DID answer,
  // the overlay just carried a marker instead of the quote — so the
  // bids-per-auction telemetry is invariant under transport pruning.
  report.bids = auction.book.bids().size() + auction.book.pruned();
  report.feasible = st.awards.size();
  report.awarded = !st.awards.empty();
  if (report.awarded) {
    report.winner = st.awards.front().bid.bidder;
    report.winner_ask = st.awards.front().bid.ask;
    report.payment = st.awards.front().payment;
  }
  ctx_.auction_report(report);

  GF_OBS(ctx_.observer(),
         end(ctx_.now(), obs::SpanKind::kAuction, ctx_.self(), id,
             report.bids, report.awarded ? 1 : 0, report.payment));
  GF_OBS(ctx_.observer(), observe(obs::Histo::kBookDepth,
                                  static_cast<double>(report.bids)));
  if (report.awarded) {
    GF_OBS(ctx_.observer(), count(obs::Counter::kAwardsCleared));
    GF_OBS(ctx_.observer(),
           observe(obs::Histo::kClearingPrice, report.payment));
  }
#if GRIDFED_TRACE
  // Forensics: the full decision record — every bid re-scored under the
  // active rule — built only when the ledger is on (score() re-derives
  // the rank key; too costly for the always-on path).
  if (obs::Observer* o = ctx_.observer(); o != nullptr && o->forensics_on()) {
    obs::ClearingDecision decision;
    decision.t = ctx_.now();
    decision.job = id;
    decision.scoring = engine.scoring();
    decision.clearing = engine.rule();
    decision.solicited.reserve(auction.book.solicited());
    for (const federation::ParticipantId pid : auction.book.solicited_list()) {
      decision.solicited.push_back(pid.value);
    }
    decision.bids.reserve(auction.book.bids().size());
    for (const market::Bid& bid : auction.book.bids()) {
      decision.bids.push_back(obs::ScoredBid{bid.bidder.value, bid.ask,
                                             bid.completion_estimate,
                                             bid.feasible,
                                             engine.score(p.job, bid)});
    }
    decision.awarded = report.awarded;
    if (report.awarded) {
      decision.winner = report.winner.value;
      decision.winner_ask = report.winner_ask;
      decision.payment = report.payment;
      if (st.awards.size() >= 2) {
        decision.has_runner_up = true;
        decision.runner_up_margin = engine.score(p.job, st.awards[1].bid) -
                                    engine.score(p.job, st.awards[0].bid);
      }
    }
    o->forensics()->record(std::move(decision));
  }
#endif

  // The book's allocations go back to the pool for the next job of the
  // same shape.
  book_pool_.release(std::move(auction.book));

  if (st.awards.empty()) {
    fallback(std::move(p));
  } else {
    advance_awards(std::move(p));
  }
}

void AuctionPolicy::advance_awards(core::Pending p) {
  AuctionJobState& st = ensure_state(p);
  while (st.next_award < st.awards.size()) {
    const market::Award award = st.awards[st.next_award++];
    if (award.bid.bidder == ctx_.self()) {
      // Won our own auction: admission is a free local re-check, and the
      // cleared payment (not the posted price) is what gets settled.
      if (ctx_.local_deadline_ok(p.job)) {
        ctx_.execute_here(std::move(p), award.payment);
        return;
      }
      continue;  // queue filled up since bidding: next award
    }
    const cluster::ResourceIndex rep = representative_of(award.bid.bidder);
    st.award_payment = award.payment;
    if (rep == ctx_.self()) {
      // A coalition the origin itself represents won: internal placement
      // runs over the local links (no wire enquiry); the engine ships
      // the payload straight to the chosen member, or hands the job back
      // through schedule() when every member declines.
      ctx_.place_in_coalition(std::move(p), award.bid.bidder,
                              award.payment);
      return;
    }
    // The award is an admission enquiry through the shared seam: the
    // winner re-checks, reserves, and answers with a kReply.  A
    // coalition winner is addressed through its representative.
    const auto& acfg = ctx_.config().auction;
    if (acfg.piggyback_awards && acfg.batch_solicitations &&
        !solicit_queue_.empty() &&
        flush_deadline_ <= ctx_.now() + acfg.piggyback_hold_window &&
        flush_solicits(award.bid.bidder)) {
      // A flush is already due soon AND it will solicit this winner: hold
      // the award so that flush carries it for free.  Strictly
      // opportunistic — an award never waits for a ride that isn't
      // coming, because delaying an admission re-check decays the
      // winner's estimate (and with it acceptance).
      held_awards_.push_back(
          HeldAward{std::move(p), rep, award.payment, false});
      return;
    }
    ctx_.send_award(std::move(p), rep, award.payment);
    return;  // resume in the engine's reply handler (or the timeout)
  }
  fallback(std::move(p));
}

void AuctionPolicy::drain_in_flight(
    const std::function<void(core::Pending)>& sink) {
  // Deterministic drain order: auctions_ is an unordered map, so walk the
  // open books sorted by job id — the sink records outcomes, and their
  // order must replay identically run to run.
  std::vector<cluster::JobId> open;
  open.reserve(auctions_.size());
  for (const auto& [id, auction] : auctions_) open.push_back(id);
  std::sort(open.begin(), open.end());
  for (const cluster::JobId id : open) {
    const auto it = auctions_.find(id);
    OpenAuction auction = std::move(it->second);
    auctions_.erase(it);
    // Close the trace span the open started; 0 bids, not awarded.
    GF_OBS(ctx_.observer(),
           end(ctx_.now(), obs::SpanKind::kAuction, ctx_.self(), id, 0, 0));
    book_pool_.release(std::move(auction.book));
    sink(std::move(auction.pending));
  }
  // Queued solicitations referenced the books just drained; armed flush
  // wake-ups and bid timeouts now find nothing.
  solicit_queue_.clear();
  flush_deadline_ = sim::kTimeInfinity;
  // Undispatched held awards still own their Pending; dispatched ones
  // were parked with the engine and are drained there.
  for (HeldAward& held : held_awards_) {
    if (held.dispatched) continue;
    sink(std::move(held.pending));
  }
  held_awards_.clear();
}

void AuctionPolicy::fallback(core::Pending p) {
  if (ctx_.config().auction.fallback_to_dbc) {
    AuctionJobState& st = ensure_state(p);
    st.dbc_fallback = true;
    st.awards.clear();
    st.next_award = 0;
    p.next_rank = 1;  // fresh DBC walk; cluster state moved on since bidding
    dbc_fallback_.schedule(std::move(p));
  } else {
    ctx_.reject(std::move(p));
  }
}

// ---- provider side ----------------------------------------------------------

market::Bid AuctionPolicy::participant_bid(const cluster::Job& job) {
  coalition::CoalitionManager* manager = ctx_.coalitions();
  if (manager != nullptr) {
    const federation::ParticipantId pid =
        manager->registry().participant_of(ctx_.self());
    if (pid.is_coalition() &&
        manager->registry().representative(pid) == ctx_.self()) {
      // This cluster speaks for its coalition: one joint bid aggregated
      // over the members' pricing (fanned out on the local links; the
      // manager counts them).
      return manager->joint_bid(pid, job);
    }
  }
  return make_bid(job);
}

market::Bid AuctionPolicy::make_bid(const cluster::Job& job) {
  const auto& cfg = ctx_.config();
  const auto& own = ctx_.lrms().spec();
  market::Bid bid;
  bid.bidder = ctx_.self();
  if (job.processors > own.processors) return bid;  // infeasible
  const sim::SimTime exec = cluster::execution_time(
      job, ctx_.spec_of(job.origin), own);
  const sim::SimTime staged =
      ctx_.now() + ctx_.payload_staging_time(job, ctx_.self());
  bid.completion_estimate = ctx_.lrms().estimate_completion(job, exec, staged);
  bid.feasible = !cfg.enforce_deadline ||
                 bid.completion_estimate <= job.absolute_deadline();
  const double true_cost = economy::job_cost(job, ctx_.spec_of(job.origin),
                                             own, cfg.cost_model);
  bid.ask = market::bid_price(cfg.auction.bid_pricing, true_cost,
                              ctx_.lrms().instantaneous_load(),
                              cfg.auction.markup, cfg.pricing);
  return bid;
}

void AuctionPolicy::on_call_for_bids(const core::Message& msg) {
  // Provider side: answer with a sealed ask.  Bidding is non-binding (no
  // reservation); the award re-runs admission, so a stale estimate only
  // costs the origin a declined award, never a broken guarantee.
  //
  // Piggybacked awards ride in front of the bids: each is an admission
  // enquiry whose reservation the subsequent estimates must price around.
  for (const core::PiggybackedAward& award : msg.batch_awards) {
    core::Message enquiry{core::MessageType::kAward, msg.from, ctx_.self(),
                          award.job};
    enquiry.price = award.payment;
    ctx_.admit_enquiry(enquiry);
  }
  if (!msg.batch_jobs.empty()) {
    // Batched solicitation: one sealed ask per carried job, all riding
    // home in a single wire message.
    core::Message answer;
    answer.type = core::MessageType::kBid;
    answer.from = ctx_.self();
    answer.to = msg.from;
    answer.job = msg.batch_jobs.front();
    answer.batch_bids.reserve(msg.batch_jobs.size());
    for (const cluster::Job& job : msg.batch_jobs) {
      const market::Bid bid = participant_bid(job);
      answer.batch_bids.push_back(core::BatchedBid{
          job.id, bid.ask, bid.completion_estimate, bid.feasible});
    }
    GF_OBS(ctx_.observer(),
           instant(ctx_.now(), obs::SpanKind::kBidAnswered, ctx_.self(),
                   msg.batch_jobs.front().id, msg.from,
                   msg.batch_jobs.size()));
    GF_OBS(ctx_.observer(),
           count(obs::Counter::kBidsAnswered, msg.batch_jobs.size()));
    ctx_.send(std::move(answer));
    return;
  }
  const market::Bid bid = participant_bid(msg.job);
  core::Message answer{core::MessageType::kBid, ctx_.self(), msg.from,
                       msg.job, bid.feasible, bid.completion_estimate};
  answer.price = bid.ask;
  GF_OBS(ctx_.observer(),
         instant(ctx_.now(), obs::SpanKind::kBidAnswered, ctx_.self(),
                 msg.job.id, msg.from, 1));
  GF_OBS(ctx_.observer(), count(obs::Counter::kBidsAnswered));
  ctx_.send(std::move(answer));
}

void AuctionPolicy::on_bid(const core::Message& msg) {
  if (!msg.batch_bids.empty()) {
    // One wire message, several books: count it once (toward the first
    // still-open auction it feeds) and enter every ask.  A bid that
    // rode the overlay was already booked by the transport as shared
    // edge messages (ledger relay counters) — not per job.
    bool counted = msg.via_overlay;
    const federation::ParticipantId bidder = participant_of(msg.from);
    for (const core::BatchedBid& entry : msg.batch_bids) {
      const auto it = auctions_.find(entry.job);
      if (it == auctions_.end()) continue;  // cleared at the timeout: stale
      // The book rejects duplicates (a re-delivered wire message), so
      // the message only counts once it actually enters a book.
      // A tombstoned entry (overlay convergecast prune) carries no
      // quote: the bidder is marked answered so the book completes on
      // the same instant it would unpruned, but no bid is entered —
      // the relay proved it outside the decision-relevant rank prefix.
      const bool entered =
          entry.pruned
              ? it->second.book.add_pruned(bidder)
              : it->second.book.add(market::Bid{bidder, entry.ask,
                                                entry.completion_estimate,
                                                entry.feasible});
      if (entered && !counted) {
        ++it->second.pending.messages;
        counted = true;
      }
      if (it->second.book.complete()) clear_auction(entry.job);
    }
    return;
  }
  const auto it = auctions_.find(msg.job.id);
  if (it == auctions_.end()) return;  // book cleared at the timeout: stale bid
  OpenAuction& auction = it->second;
  // A bid from a coalition's representative enters under the coalition's
  // participant id (singletons map to themselves).
  const bool entered =
      msg.bid_pruned
          ? auction.book.add_pruned(participant_of(msg.from))
          : auction.book.add(market::Bid{participant_of(msg.from), msg.price,
                                         msg.completion_estimate, msg.accept});
  if (entered && !msg.via_overlay) ++auction.pending.messages;
  if (auction.book.complete()) clear_auction(msg.job.id);
}

}  // namespace gridfed::policy
