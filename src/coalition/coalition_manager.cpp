#include "coalition/coalition_manager.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "sim/check.hpp"

namespace gridfed::coalition {

namespace {
/// `candidate` beats `best` as the coalition's spokesbid: feasibility
/// first, then the lower ask, then the earlier guarantee.  Iteration in
/// ascending member order makes the index the implicit final tie-break.
[[nodiscard]] bool better_bid(const market::Bid& candidate,
                              const market::Bid& best) {
  if (candidate.feasible != best.feasible) return candidate.feasible;
  if (candidate.ask != best.ask) return candidate.ask < best.ask;
  return candidate.completion_estimate < best.completion_estimate;
}
}  // namespace

CoalitionManager::CoalitionManager(CoalitionContext& ctx,
                                   const CoalitionConfig& config,
                                   std::span<const std::uint64_t> ring_keys,
                                   obs::Observer* observer)
    : ctx_(ctx),
      observer_(observer),
      config_(config),
      registry_(ctx.sites()),
      ring_keys_(ring_keys.begin(), ring_keys.end()),
      home_coalition_(ctx.sites(), federation::kNoParticipant) {
  GF_EXPECTS(config_.bucket_size >= 2);
  GF_EXPECTS(ring_keys.size() == ctx.sites());
  // Latency-proximity buckets: consecutive runs in the overlay ring
  // order (ring key, then index — the TreeTransport's layout order).
  std::vector<std::pair<std::uint64_t, cluster::ResourceIndex>> order;
  order.reserve(ring_keys.size());
  for (std::size_t i = 0; i < ring_keys.size(); ++i) {
    order.emplace_back(ring_keys[i], static_cast<cluster::ResourceIndex>(i));
  }
  std::sort(order.begin(), order.end());
  for (std::size_t at = 0; at + 2 <= order.size();
       at += config_.bucket_size) {
    const std::size_t len =
        std::min<std::size_t>(config_.bucket_size, order.size() - at);
    if (len < 2) break;  // a trailing loner stays a singleton
    std::vector<cluster::ResourceIndex> members;
    members.reserve(len);
    for (std::size_t i = at; i < at + len; ++i) {
      members.push_back(order[i].second);
    }
    // The first member in ring order speaks for the group on the wire.
    const cluster::ResourceIndex rep = order[at].second;
    const federation::ParticipantId id =
        registry_.register_coalition(std::move(members), rep);
    for (std::size_t i = at; i < at + len; ++i) {
      home_coalition_[order[i].second] = id;
    }
    GF_OBS(observer_, instant(0.0, obs::SpanKind::kCoalitionFormed, rep,
                              id.value, len));
    GF_OBS(observer_, count(obs::Counter::kCoalitionsFormed));
  }
}

market::Bid CoalitionManager::joint_bid(federation::ParticipantId id,
                                        const cluster::Job& job) {
  GF_EXPECTS(id.is_coalition());
  const cluster::ResourceIndex rep = registry_.representative(id);
  market::Bid best;  // infeasible until a member enters
  best.bidder = id;
  bool any = false;
  for (const cluster::ResourceIndex member : registry_.members(id)) {
    if (member == job.origin) continue;  // the origin bids for itself
    if (job.processors > ctx_.spec_of(member).processors) continue;
    market::Bid entry = ctx_.member_bid(member, job);
    if (member != rep) local_messages_ += 2;  // pricing enquiry + answer
    entry.bidder = id;
    if (!any || better_bid(entry, best)) best = entry;
    any = true;
  }
  return best;
}

Placement CoalitionManager::place_award(federation::ParticipantId id,
                                        const cluster::Job& job) {
  GF_EXPECTS(id.is_coalition());
  const cluster::ResourceIndex rep = registry_.representative(id);
  // Re-price every member at award time (the queues moved since bidding)
  // and admit earliest-guarantee-first; admission itself re-checks, so a
  // member whose queue filled in this very instant simply declines and
  // the next-best member is tried.  The candidate buffer is a member,
  // in use until the admission loop ends: member_bid only prices, and
  // member_admit only reserves at the member's LRMS and schedules its
  // hold timeout.  Neither sends a message or runs an event, so no other
  // award can re-enter place_award while the loop runs.
  std::vector<Candidate>& candidates = scratch_candidates_;
  candidates.clear();
  for (const cluster::ResourceIndex member : registry_.members(id)) {
    if (member == job.origin) continue;  // matches the joint bid's scope
    if (job.processors > ctx_.spec_of(member).processors) continue;
    const market::Bid entry = ctx_.member_bid(member, job);
    if (member != rep) local_messages_ += 2;
    candidates.push_back(Candidate{entry.completion_estimate, member,
                                   entry.ask});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.estimate != b.estimate) return a.estimate < b.estimate;
              return a.member < b.member;
            });
  for (const Candidate& candidate : candidates) {
    if (candidate.member != rep) local_messages_ += 2;  // placement RPC
    const sim::SimTime estimate =
        ctx_.member_admit(candidate.member, job);
    if (estimate == sim::kTimeInfinity) continue;  // declined: next member
    // Snapshot the member list NOW: the eventual settlement must split
    // over the members who backed this bid, even if churn re-forms the
    // group before the job completes.
    const auto members = registry_.members(id);
    notes_.insert_or_assign(
        job.id,
        AwardNote{id, candidate.member, candidate.ask,
                  std::vector<cluster::ResourceIndex>(members.begin(),
                                                      members.end())});
    return Placement{true, candidate.member, estimate};
  }
  return Placement{};
}

bool CoalitionManager::settle(economy::GridBank& bank, cluster::JobId job,
                              cluster::ResourceIndex executor,
                              cluster::ResourceIndex consumer_home,
                              std::uint32_t user, double payment) {
  const auto it = notes_.find(job);
  if (it == notes_.end()) return false;
  AwardNote note = std::move(it->second);
  notes_.erase(it);
  if (note.executor != executor) {
    // The job ultimately ran somewhere else (a lossy network abandoned
    // the awarded enquiry and the origin re-scheduled): the note is
    // stale and the plain solo settlement applies.
    return false;
  }
  // Split over the PLACEMENT-time snapshot, not the live registry: a
  // member that departed mid-flight still backed this bid and is still
  // paid its share, which is what keeps the bank balanced member-by-
  // member before the split rule changes.
  const std::vector<cluster::ResourceIndex>& members = note.members;
  scratch_weights_.clear();
  std::size_t executor_pos = members.size();
  for (std::size_t i = 0; i < members.size(); ++i) {
    scratch_weights_.push_back(ctx_.spec_of(members[i]).total_mips());
    if (members[i] == executor) executor_pos = i;
  }
  GF_EXPECTS(executor_pos < members.size());
  std::vector<double> shares =
      split_surplus(config_.surplus, payment, executor_pos,
                    note.executor_ask, scratch_weights_);
  for (std::size_t i = 0; i < members.size(); ++i) {
    if (shares[i] <= 0.0) continue;  // a zero share settles nothing
    bank.settle(economy::Settlement{job, consumer_home, members[i],
                                    shares[i], user});
  }
  splits_.push_back(SplitRecord{job, note.coalition, executor,
                                note.executor_ask, payment,
                                std::move(note.members),
                                std::move(shares)});
  return true;
}

// ---- membership churn -------------------------------------------------------

cluster::ResourceIndex CoalitionManager::first_in_ring(
    federation::ParticipantId id) const {
  const auto members = registry_.members(id);
  GF_EXPECTS(!members.empty());
  cluster::ResourceIndex best = members.front();
  for (const cluster::ResourceIndex m : members) {
    if (ring_keys_[m] < ring_keys_[best] ||
        (ring_keys_[m] == ring_keys_[best] && m < best)) {
      best = m;
    }
  }
  return best;
}

bool CoalitionManager::rational_split(federation::ParticipantId id) {
  // Rule-level probe, independent of live queues: a unit ask against a
  // doubled payment (surplus == ask) must split budget-balanced with no
  // negative share and the executor recovering at least its ask — for
  // EVERY member as the hypothetical executor.
  constexpr double kProbeAsk = 1.0;
  constexpr double kProbePayment = 2.0;
  const auto members = registry_.members(id);
  scratch_weights_.clear();
  for (const cluster::ResourceIndex m : members) {
    scratch_weights_.push_back(ctx_.spec_of(m).total_mips());
  }
  for (std::size_t i = 0; i < members.size(); ++i) {
    const std::vector<double> shares = split_surplus(
        config_.surplus, kProbePayment, i, kProbeAsk, scratch_weights_);
    double sum = 0.0;
    for (const double s : shares) {
      if (s < -1e-9) return false;
      sum += s;
    }
    if (shares[i] + 1e-9 < kProbeAsk) return false;
    if (std::abs(sum - kProbePayment) > 1e-6) return false;
  }
  return true;
}

void CoalitionManager::record_reformation(federation::ParticipantId id,
                                          cluster::ResourceIndex member,
                                          bool departed, sim::SimTime now) {
  const auto members = registry_.members(id);
  ReformationRecord record;
  record.t = now;
  record.coalition = id;
  record.member = member;
  record.departed = departed;
  record.members_after.assign(members.begin(), members.end());
  record.representative_after = registry_.representative(id);
  record.rational = rational_split(id);
  GF_OBS(observer_,
         instant(now, obs::SpanKind::kCoalitionReform,
                 record.representative_after, id.value, member,
                 departed ? 1 : 0));
  GF_OBS(observer_, count(obs::Counter::kCoalitionReforms));
  reformations_.push_back(std::move(record));
}

void CoalitionManager::on_member_departed(cluster::ResourceIndex member,
                                          sim::SimTime now) {
  const federation::ParticipantId id = registry_.participant_of(member);
  if (!id.is_coalition()) return;  // singletons re-form nothing
  if (registry_.members(id).size() < 2) {
    // The last member: keep the shell (no live directory entry resolves
    // to it, so it is never solicited) rather than empty the group.
    return;
  }
  registry_.remove_member(id, member);
  if (registry_.representative(id) == member) {
    // The spokescluster died: the surviving member first in ring order
    // takes over — the same rule formation used.
    registry_.set_representative(id, first_in_ring(id));
  }
  record_reformation(id, member, /*departed=*/true, now);
}

void CoalitionManager::on_member_rejoined(cluster::ResourceIndex member,
                                          sim::SimTime now) {
  if (registry_.participant_of(member).is_coalition()) {
    // Still formally a member (it was the group's last): nothing moved.
    return;
  }
  const federation::ParticipantId home = home_coalition_[member];
  if (!home.is_coalition()) return;  // formed no group to rejoin
  registry_.add_member(home, member);
  // Bucket rule: the member first in ring order represents — a rejoiner
  // ahead of the current representative takes the role back.
  registry_.set_representative(home, first_in_ring(home));
  record_reformation(home, member, /*departed=*/false, now);
}

}  // namespace gridfed::coalition
