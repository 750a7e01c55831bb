#include "core/gfa.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "economy/cost_model.hpp"
#include "sim/check.hpp"

namespace gridfed::core {

namespace {
// Service (unloaded execution) time promised by a quote: Eq. 3 computed
// from the advertised mu/gamma instead of a ResourceSpec.
sim::SimTime service_time_from_quote(const cluster::Job& job,
                                     const cluster::ResourceSpec& origin,
                                     const directory::Quote& quote) {
  const sim::SimTime compute =
      job.length_mi / (quote.mips * static_cast<double>(job.processors));
  const sim::SimTime comm =
      job.comm_overhead * origin.bandwidth / quote.bandwidth;
  return compute + comm;
}
}  // namespace

Gfa::Gfa(sim::Simulation& sim, cluster::ResourceIndex index, cluster::Lrms& lrms,
         directory::FederationDirectory& dir, GfaHost& host,
         obs::Observer* observer)
    : sim_(sim),
      index_(index),
      lrms_(lrms),
      dir_(dir),
      host_(host),
      observer_(observer),
      policy_(policy::make_policy(host.config().mode, *this, observer)) {}

void Gfa::submit_local(cluster::Job job) {
  GF_EXPECTS(job.origin == index_);
  GF_OBS(observer_,
         begin(now(), obs::SpanKind::kJob, index_, job.id, job.processors,
               static_cast<std::uint64_t>(job.user), job.length_mi));
  GF_OBS(observer_, count(obs::Counter::kJobsSubmitted));
  Pending p;
  p.job = std::move(job);
  if (down_ || leaving_) {
    // The cluster is gone (or winding down): its users' jobs bounce, but
    // each still produces exactly one outcome.
    reject(std::move(p));
    return;
  }
  policy_->schedule(std::move(p));
}

bool Gfa::local_deadline_ok(const cluster::Job& job) const {
  const auto& cfg = host_.config();
  if (job.processors > lrms_.spec().processors) return false;
  if (!cfg.enforce_deadline) return true;
  const sim::SimTime exec = cluster::execution_time(
      job, host_.spec_of(job.origin), lrms_.spec());
  return lrms_.estimate_completion(job, exec) <= job.absolute_deadline();
}

double Gfa::cost_from_quote(const cluster::Job& job,
                            const directory::Quote& quote) const {
  const auto& cfg = host_.config();
  const auto& origin = host_.spec_of(job.origin);
  switch (cfg.cost_model) {
    case economy::CostModel::kComputeOnly:
      return quote.price * job.length_mi /
             (quote.mips * static_cast<double>(job.processors));
    case economy::CostModel::kWallTime:
      return quote.price * service_time_from_quote(job, origin, quote);
    case economy::CostModel::kPerMi:
    default:
      return quote.price * job.length_mi / economy::kMiPerChargeUnit;
  }
}

// ---- enquiry seam (DBC negotiate + auction award) ---------------------------

void Gfa::park_enquiry(Pending p, cluster::ResourceIndex target,
                       MessageType type, double price) {
  GF_EXPECTS(type == MessageType::kNegotiate || type == MessageType::kAward);
  ++p.negotiations;
  ++p.messages;  // the enquiry
  p.current_target = target;
  p.award_in_flight = type == MessageType::kAward;
  ++p.attempt;
  // Enquiry span arg convention: a0 = target, a1 = 1 for an award leg.
  // The matching end lands in handle_reply (a1 = 0 declined / 1
  // accepted) or on_negotiate_timeout (a1 = 2), exactly once per begin.
  GF_OBS(observer_,
         begin(now(), obs::SpanKind::kEnquiry, index_, p.job.id, target,
               p.award_in_flight ? 1 : 0));
  GF_OBS(observer_, count(obs::Counter::kEnquiriesStarted));
  const cluster::JobId id = p.job.id;
  const std::uint64_t attempt = p.attempt;
  const Outgoing enquiry = host_.compose(type, index_, target, p.job);
  enquiry->price = price;
  pending_.insert_or_assign(id, std::move(p));
  host_.send(enquiry);

  const auto& cfg = host_.config();
  if (cfg.negotiate_timeout > 0.0) {
    sim_.schedule_in(
        cfg.negotiate_timeout, sim::EventKind::kNegotiateTimeout,
        [this, id, attempt] { on_negotiate_timeout(id, attempt); });
  }
}

void Gfa::send_negotiate(Pending p, cluster::ResourceIndex target) {
  park_enquiry(std::move(p), target, MessageType::kNegotiate, 0.0);
}

void Gfa::send_award(Pending p, cluster::ResourceIndex target,
                     double payment) {
  park_enquiry(std::move(p), target, MessageType::kAward, payment);
}

void Gfa::on_negotiate_timeout(cluster::JobId id, std::uint64_t attempt) {
  const auto it = pending_.find(id);
  if (it == pending_.end()) return;            // reply already handled
  if (it->second.attempt != attempt) return;   // a later enquiry is live
  if (it->second.current_target == cluster::kNoResource) return;
  // No reply: abandon this enquiry (the remote may have reserved — its own
  // hold timeout will release the processors) and hand the job back.  An
  // award the winner never honoured counts against its reputation like
  // an explicit decline.
  Pending p = std::move(it->second);
  pending_.erase(it);
  GF_OBS(observer_, end(now(), obs::SpanKind::kEnquiry, index_, id,
                        p.current_target, 2));
  if (p.award_in_flight) {
    host_.award_declined(participant_of(p.current_target));
  }
  p.current_target = cluster::kNoResource;
  policy_->schedule(std::move(p));
}

federation::ParticipantId Gfa::participant_of(
    cluster::ResourceIndex resource) const {
  return coalition::participant_of(host_.coalitions(), resource);
}

void Gfa::place_in_coalition(Pending p, federation::ParticipantId coalition,
                             double payment) {
  // The origin's own coalition won the auction: placement is a local
  // fan-out over the cheap intra-coalition links (the manager counts
  // them), never a wire enquiry.  The chosen member reserved through
  // admit_remote, so shipping the payload directly is as safe as after
  // an accepted kReply.
  coalition::CoalitionManager* manager = host_.coalitions();
  GF_EXPECTS(manager != nullptr);
  const coalition::Placement placed = manager->place_award(coalition, p.job);
  if (!placed.accepted) {
    // Every member declined (queues moved since bidding): hand the job
    // back like a declined reply — the policy tries the next award.
    host_.award_declined(coalition);
    policy_->schedule(std::move(p));
    return;
  }
  ++p.messages;  // the payload transfer to the executing member
  const Outgoing submission = host_.compose(
      MessageType::kJobSubmission, index_, placed.member, p.job);
  submission->accept = true;
  submission->completion_estimate = placed.estimate;
  Awaiting info{std::move(p.job), p.negotiations, p.messages, payment,
                placed.member};
  info.promise = placed.estimate;
  info.via_award = true;
  info.via_coalition = true;
  GF_OBS(observer_,
         begin(now(), obs::SpanKind::kPlacement, index_, info.job.id,
               placed.member, coalition.value));
  GF_OBS(observer_,
         instant(now(), obs::SpanKind::kCoalitionPlace, index_, info.job.id,
                 placed.member, coalition.value));
  GF_OBS(observer_, count(obs::Counter::kCoalitionPlacements));
  awaiting_.emplace(info.job.id, std::move(info));
  host_.send(submission);
}

void Gfa::execute_here(Pending p, double price) {
  const auto& cfg = host_.config();
  const auto& own = lrms_.spec();
  const sim::SimTime exec =
      cluster::execution_time(p.job, host_.spec_of(p.job.origin), own);
  lrms_.submit(p.job, exec);
  const double cost =
      price >= 0.0 ? price
                   : economy::job_cost(p.job, host_.spec_of(p.job.origin),
                                       own, cfg.cost_model);
  GF_OBS(observer_, begin(now(), obs::SpanKind::kPlacement, index_,
                          p.job.id, index_, 0, cost));
  awaiting_.emplace(p.job.id, Awaiting{p.job, p.negotiations, p.messages,
                                       cost, index_});
}

void Gfa::reject(Pending p) {
  GF_OBS(observer_,
         end(now(), obs::SpanKind::kJob, index_, p.job.id, 0));
  host_.job_rejected(p.job, p.negotiations, p.messages);
}

void Gfa::receive(const Message& msg) {
  GF_EXPECTS(msg.to == index_);
  switch (msg.type) {
    case MessageType::kNegotiate:
    case MessageType::kAward:
      admit_and_reply(msg);
      break;
    case MessageType::kReply:
      handle_reply(msg);
      break;
    case MessageType::kJobSubmission:
      handle_submission(msg);
      break;
    case MessageType::kJobCompletion:
      handle_completion(msg);
      break;
    case MessageType::kCallForBids:
      policy_->on_call_for_bids(msg);
      break;
    case MessageType::kBid:
      policy_->on_bid(msg);
      break;
    case MessageType::kGossip:
      // Membership gossip is intercepted by the Federation's router and
      // handed to the MembershipService; it never reaches a GFA.
      break;
  }
}

void Gfa::admit_and_reply(const Message& msg) {
  // Resource-manager side of admission control, shared by the DBC
  // negotiate and the auction award: ask the LRMS for the exact completion
  // time; accept iff it honours the deadline.  On acceptance we reserve
  // immediately so the guarantee stays binding until the job payload
  // arrives.
  const cluster::Job& job = msg.job;
  coalition::CoalitionManager* manager = host_.coalitions();
  if (msg.type == MessageType::kAward && manager != nullptr) {
    const federation::ParticipantId pid =
        manager->registry().participant_of(index_);
    if (pid.is_coalition() &&
        manager->registry().representative(pid) == index_) {
      // An award addressed to the coalition this cluster speaks for:
      // internal placement picks the member with the earliest completion
      // guarantee (that member reserves through the same admit_remote
      // seam), and the reply names the executing member so the origin
      // ships the payload straight to it.
      const coalition::Placement placed = manager->place_award(pid, job);
      if (placed.accepted) {
        GF_OBS(observer_,
               instant(now(), obs::SpanKind::kCoalitionPlace, index_, job.id,
                       placed.member, pid.value));
        GF_OBS(observer_, count(obs::Counter::kCoalitionPlacements));
      }
      const Outgoing reply =
          host_.compose(MessageType::kReply, index_, msg.from, job);
      reply->accept = placed.accepted;
      reply->completion_estimate =
          placed.accepted ? placed.estimate : sim::kTimeInfinity;
      if (placed.accepted) reply->exec_site = placed.member;
      host_.send(reply);
      return;
    }
  }
  const sim::SimTime estimate = admit_remote(job);
  const Outgoing reply =
      host_.compose(MessageType::kReply, index_, msg.from, job);
  reply->accept = estimate != sim::kTimeInfinity;
  reply->completion_estimate = estimate;
  host_.send(reply);
}

sim::SimTime Gfa::admit_remote(const cluster::Job& job) {
  const auto& cfg = host_.config();
  const auto& own = lrms_.spec();
  // A crashed or departing cluster admits nothing new.  (A crashed one
  // should never even be asked — the router suppresses its deliveries —
  // but coalition-internal placement reaches members directly.)
  if (down_ || leaving_) return sim::kTimeInfinity;
  if (job.processors > own.processors) return sim::kTimeInfinity;
  // A lossy network can re-deliver an enquiry for a job we already
  // hold a reservation for (our reply was lost; the origin's walk
  // came back around).  Release the superseded reservation when it
  // has not started yet, so the fresh estimate prices the queue
  // honestly; a reservation that already started is sunk capacity and
  // its completion will be swallowed by the identity check in
  // on_lrms_completion.
  const auto stale = holds_.find(job.id);
  if (stale != holds_.end() && !stale->second.submitted &&
      now() < stale->second.reservation.start) {
    GF_OBS(observer_, end(now(), obs::SpanKind::kHold, index_,
                          stale->second.token, job.id, 2));
    lrms_.cancel(stale->second.reservation);
    holds_.erase(stale);
  }
  const sim::SimTime exec =
      cluster::execution_time(job, host_.spec_of(job.origin), own);
  // The job cannot start before its input data lands here (Eq. 1 volume
  // over the WAN model; 0 under the paper's free-network assumption).
  const sim::SimTime staging = host_.payload_staging_time(job, index_);
  const sim::SimTime staged = now() + staging;
  const sim::SimTime estimate = lrms_.estimate_completion(job, exec, staged);
  if (cfg.enforce_deadline && estimate > job.absolute_deadline()) {
    return sim::kTimeInfinity;
  }
  const cluster::Reservation res = lrms_.submit(job, exec, staged);
  const std::uint64_t token = ++next_hold_token_;
  // Hold spans are keyed by their unique token so they stay balanced
  // through every lossy-network contortion.  A started-but-unsubmitted
  // stale hold survives the cancel window above yet is overwritten here:
  // its span must close as superseded (a1 = 2) before the new one opens.
  if (observer_ != nullptr) {
    const auto prior = holds_.find(job.id);
    if (prior != holds_.end()) {
      observer_->end(now(), obs::SpanKind::kHold, index_,
                     prior->second.token, job.id, 2);
    }
    observer_->begin(now(), obs::SpanKind::kHold, index_, token, job.id);
    observer_->count(obs::Counter::kHoldsPlaced);
  }
  holds_.insert_or_assign(job.id, RemoteHold{res, token, false});
  if (cfg.negotiate_timeout > 0.0) {
    // If the payload never arrives (reply or submission lost), release
    // the processors.  2x the enquiry timeout comfortably covers the
    // origin's reply wait plus the submission's control leg; under a WAN
    // model the payload also needs its staging time to land, and a hold
    // cancelled while it is in flight would strand the job.
    sim_.schedule_in(
        2.0 * cfg.negotiate_timeout + staging, sim::EventKind::kHoldTimeout,
        [this, id = job.id, token] { on_hold_timeout(id, token); });
  }
  return estimate;
}

void Gfa::on_hold_timeout(cluster::JobId id, std::uint64_t token) {
  const auto it = holds_.find(id);
  if (it == holds_.end()) return;      // completed (short job) — fine
  if (it->second.token != token) return;  // a later reservation is live
  if (it->second.submitted) return;    // payload arrived; hold is live
  // Cancellation is only sound strictly before the reservation starts —
  // at the start instant the LRMS has already dispatched it (completions
  // and starts run before control events).  If the phantom already
  // started (reply lost + a fast queue), keep the hold in place:
  // on_lrms_completion uses it to recognize the phantom and swallow the
  // completion instead of mailing output nobody is waiting for.
  if (now() < it->second.reservation.start) {
    GF_OBS(observer_, end(now(), obs::SpanKind::kHold, index_,
                          it->second.token, id, 1));
    GF_OBS(observer_, count(obs::Counter::kHoldsCancelled));
    lrms_.cancel(it->second.reservation);
    holds_.erase(it);
  }
}

void Gfa::handle_reply(const Message& msg) {
  const auto it = pending_.find(msg.job.id);
  if (it == pending_.end()) return;  // a timeout already abandoned this job
  if (it->second.current_target != msg.from) return;  // stale (older enquiry)
  Pending p = std::move(it->second);
  pending_.erase(it);
  p.current_target = cluster::kNoResource;
  ++p.messages;  // the reply we just received
  GF_OBS(observer_, end(now(), obs::SpanKind::kEnquiry, index_,
                        msg.job.id, msg.from, msg.accept ? 1 : 0));

  if (!msg.accept) {
    GF_OBS(observer_, count(obs::Counter::kEnquiriesDeclined));
    // An award the winner declined is a reputation signal against the
    // awarded participant (the coalition when its representative spoke).
    if (p.award_in_flight) host_.award_declined(participant_of(msg.from));
    policy_->schedule(std::move(p));  // continue the policy's walk
    return;
  }
  // Accepted: ship the job.  The remote reserved at enquiry time, so the
  // submission is the payload transfer the ledger must count.  What gets
  // settled is the policy's call: an auction award its cleared payment, a
  // DBC negotiate the posted price.  A coalition representative may have
  // accepted on behalf of another member (exec_site): the payload goes
  // straight to the member that actually reserved.
  ++p.messages;
  const cluster::ResourceIndex exec =
      msg.exec_site == cluster::kNoResource ? msg.from : msg.exec_site;
  const double cost = policy_->settled_cost(p, exec);
  const Outgoing submission =
      host_.compose(MessageType::kJobSubmission, index_, exec, p.job);
  submission->accept = true;
  submission->completion_estimate = msg.completion_estimate;
  Awaiting info{std::move(p.job), p.negotiations, p.messages, cost, exec};
  info.promise = msg.completion_estimate;
  info.via_award = p.award_in_flight;
  info.via_coalition = msg.exec_site != cluster::kNoResource;
  GF_OBS(observer_, begin(now(), obs::SpanKind::kPlacement, index_,
                          info.job.id, exec, 0, cost));
  awaiting_.emplace(info.job.id, std::move(info));
  host_.send(submission);
}

void Gfa::handle_submission(const Message& msg) {
  // Payload arrival for a job reserved at negotiate-accept; the LRMS
  // already has it.  Mark the hold live so its timeout (if armed) knows
  // the reservation is backed by a real job.
  GF_EXPECTS(msg.job.origin != index_);
  const auto it = holds_.find(msg.job.id);
  if (it != holds_.end()) it->second.submitted = true;
}

void Gfa::handle_completion(const Message& msg) {
  finalize(msg.job.id, msg.from, msg.start_time, msg.completion_estimate);
}

void Gfa::on_lrms_completion(const cluster::CompletedJob& done) {
  if (done.job.origin == index_) {
    // Our own user's job finished here.
    finalize(done.job.id, index_, done.reservation.start,
             done.reservation.completion);
    return;
  }
  // A remote job finished.  A hold whose payload never arrived (the reply
  // was lost and its start slipped past the hold timeout's cancel window)
  // is a phantom: it consumed the reservation but there is no one to send
  // output to — the origin rescheduled elsewhere long ago.
  const auto hold = holds_.find(done.job.id);
  if (hold == holds_.end()) {
    // No hold at all: a superseded reservation outliving its replacement
    // (the replacement's hold was cancelled after the origin re-enquired
    // and lost that reply too).  Nobody awaits this output either.
    return;
  }
  if (hold->second.reservation.serial != done.reservation.serial) {
    // A superseded reservation for a re-enquired job (see
    // admit_and_reply): sunk capacity, nobody waits for its output, and
    // the live hold must stay in place.
    return;
  }
  const bool phantom = !hold->second.submitted;
  GF_OBS(observer_, end(now(), obs::SpanKind::kHold, index_,
                        hold->second.token, done.job.id,
                        phantom ? 3 : 0));
  if (phantom) {
    GF_OBS(observer_, count(obs::Counter::kHoldsPhantom));
  }
  holds_.erase(hold);
  if (phantom) return;
  // Send the output home with the definite execution window.
  const Outgoing output = host_.compose(MessageType::kJobCompletion, index_,
                                        done.job.origin, done.job);
  output->accept = true;
  output->completion_estimate = done.reservation.completion;
  output->start_time = done.reservation.start;
  host_.send(output);
}

void Gfa::finalize(cluster::JobId id, cluster::ResourceIndex exec,
                   sim::SimTime start, sim::SimTime completion) {
  const auto it = awaiting_.find(id);
  if (it == awaiting_.end()) {
    // Only reachable under churn: on_peer_dead swept this placement (the
    // executor was confirmed dead while the completion was already in
    // flight home) and the job was re-scheduled — its outcome is
    // accounted on the replacement path, so this late copy is swallowed.
    GF_EXPECTS(host_.config().membership.active());
    return;
  }
  Awaiting info = std::move(it->second);
  awaiting_.erase(it);

  // A completed job that blew the guarantee its provider gave at
  // admission is the second reputation input signal.  Only awarded
  // providers are booked (via_award), keeping AuctionStats auction-only;
  // the tolerance absorbs floating-point drift between the admission
  // estimate and the reservation's settled completion.
  if (info.via_award && completion > info.promise + 1e-6) {
    host_.guarantee_missed(participant_of(exec));
  }

  GF_OBS(observer_, end(now(), obs::SpanKind::kPlacement, index_, id,
                        exec, 0, info.cost));
  GF_OBS(observer_,
         end(now(), obs::SpanKind::kJob, index_, id, 1, exec, info.cost));

  JobOutcome outcome;
  outcome.job = std::move(info.job);
  outcome.accepted = true;
  outcome.executed_on = exec;
  outcome.start = start;
  outcome.completion = completion;
  outcome.cost = info.cost;
  outcome.negotiations = info.negotiations;
  outcome.via_coalition = info.via_coalition;
  // A migrated job's record gains the completion message that just
  // arrived; local jobs finish without network traffic.
  outcome.messages = info.messages + (exec == index_ ? 0 : 1);
  host_.job_completed(outcome);
}

// ---- membership churn -------------------------------------------------------

namespace {
/// Sorted snapshot of a job-keyed table's ids.  Every churn drain
/// replays in job-id order, which keeps the outcome order (it feeds the
/// digests) independent of the order the table happens to iterate in.
template <typename Map>
std::vector<cluster::JobId> sorted_ids(const Map& map) {
  std::vector<cluster::JobId> ids;
  ids.reserve(map.size());
  for (const auto& [id, value] : map) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}
}  // namespace

void Gfa::on_crash() {
  if (down_) return;
  down_ = true;
  // Enquiries on the wire: nobody is left to handle the reply.  End the
  // enquiry span (a1 = 3: origin died) and bounce the job.
  for (const cluster::JobId id : sorted_ids(pending_)) {
    const auto it = pending_.find(id);
    Pending p = std::move(it->second);
    pending_.erase(it);
    if (p.current_target != cluster::kNoResource) {
      GF_OBS(observer_, end(now(), obs::SpanKind::kEnquiry, index_,
                            id, p.current_target, 3));
    }
    reject(std::move(p));
  }
  // Open auction books die with us; their armed bid timeouts and flush
  // wake-ups find nothing afterwards.
  policy_->drain_in_flight([this](Pending p) { reject(std::move(p)); });
  // Placed jobs: a local placement's completion was killed by the LRMS
  // shutdown, a remote one's completion message will be addressed to a
  // dead site and suppressed.  Either way the outcome lands now.
  for (const cluster::JobId id : sorted_ids(awaiting_)) {
    const auto it = awaiting_.find(id);
    Awaiting info = std::move(it->second);
    awaiting_.erase(it);
    GF_OBS(observer_, end(now(), obs::SpanKind::kPlacement, index_,
                          id, info.exec, 3, info.cost));
    GF_OBS(observer_,
           end(now(), obs::SpanKind::kJob, index_, id, 0));
    host_.job_rejected(info.job, info.negotiations, info.messages);
  }
  // Remote holds: the reservations themselves were killed by the LRMS
  // shutdown (their finish events fire silently); close the books here.
  // Their origins re-place through on_peer_dead at confirmation.
  for (const cluster::JobId id : sorted_ids(holds_)) {
    GF_OBS(observer_, end(now(), obs::SpanKind::kHold, index_,
                          holds_.find(id)->second.token, id, 4));
  }
  holds_.clear();
}

void Gfa::on_leave() { leaving_ = true; }

void Gfa::on_rejoin() {
  down_ = false;
  leaving_ = false;
}

void Gfa::on_peer_dead(cluster::ResourceIndex peer) {
  GF_EXPECTS(peer != index_);
  if (down_) return;
  // Enquiries parked on the dead peer will never be answered: abandon
  // them like a negotiate timeout (a1 = 3 distinguishes the cause) and
  // resume the policy walk — the directory dropped the peer already.
  std::vector<cluster::JobId> ids;
  for (const auto& [id, p] : pending_) {
    if (p.current_target == peer) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  for (const cluster::JobId id : ids) {
    const auto it = pending_.find(id);
    // Re-check: an earlier drain's re-schedule may have moved this job.
    if (it == pending_.end() || it->second.current_target != peer) continue;
    Pending p = std::move(it->second);
    pending_.erase(it);
    GF_OBS(observer_, end(now(), obs::SpanKind::kEnquiry, index_,
                          id, peer, 3));
    if (p.award_in_flight) host_.award_declined(participant_of(peer));
    p.current_target = cluster::kNoResource;
    policy_->schedule(std::move(p));
  }
  // Jobs placed on the dead peer: its LRMS killed them, no completion is
  // coming.  Re-enter the scheduling walk with the accounting carried
  // over — the job terminates exactly once, just somewhere else.
  ids.clear();
  for (const auto& [id, info] : awaiting_) {
    if (info.exec == peer) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  for (const cluster::JobId id : ids) {
    const auto it = awaiting_.find(id);
    if (it == awaiting_.end() || it->second.exec != peer) continue;
    Awaiting info = std::move(it->second);
    awaiting_.erase(it);
    GF_OBS(observer_, end(now(), obs::SpanKind::kPlacement, index_,
                          id, peer, 3, info.cost));
    GF_OBS(observer_, count(obs::Counter::kJobsOrphaned));
    Pending p;
    p.job = std::move(info.job);
    p.negotiations = info.negotiations;
    p.messages = info.messages;
    policy_->schedule(std::move(p));
  }
}

void Gfa::publish_load_hint() {
  dir_.update_load_hint(index_, lrms_.instantaneous_load(), now());
}

}  // namespace gridfed::core
