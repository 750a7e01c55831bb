#pragma once
// The membership runtime: ground truth + detection.
//
// The service is the epidemic sibling of the delivery transports: it
// owns one MembershipView per member and drives the push-pull
// anti-entropy rounds over the same wire (kGossip messages ride the
// transport's point-to-point legs — recorded in the ledger, subject to
// the loss lottery and latency like any enquiry).  It also owns the
// run's ground truth: which members have crashed, left, or rejoined per
// the ChurnSchedule.  Ground truth drives the *mechanics* (a crashed
// site neither sends nor receives); the gossip views drive the
// *decisions* (eviction from the directory, tree repair, coalition
// re-formation fire only when the failure detector confirms a death).
//
// Confirmation = the first live view that declares a genuinely crashed
// member dead.  A false suspicion of a live member never confirms — the
// member refutes it with a higher incarnation — so the federation never
// evicts a working cluster on rumor alone.

#include <cstdint>
#include <vector>

#include "cluster/resource.hpp"
#include "core/config.hpp"
#include "core/message.hpp"
#include "membership/membership_config.hpp"
#include "membership/membership_view.hpp"
#include "obs/observer.hpp"
#include "sim/random.hpp"
#include "sim/simulation.hpp"

namespace gridfed::membership {

/// Environment the service operates in, implemented by the Federation
/// driver.  The churn_* hooks apply the mechanical consequences of a
/// scheduled event (LRMS shutdown, GFA drain, directory changes);
/// member_confirmed_dead fires once per crash when the failure detector
/// converges (tree repair, coalition re-formation, orphan sweeps).
class MembershipContext {
 public:
  virtual ~MembershipContext() = default;

  [[nodiscard]] virtual const core::FederationConfig& config() const = 0;
  [[nodiscard]] virtual sim::Simulation& sim() = 0;
  [[nodiscard]] virtual std::size_t sites() const = 0;

  /// Sends one kGossip digest over the run's transport.
  virtual void gossip_send(core::Message&& msg) = 0;

  virtual void churn_join(cluster::ResourceIndex site) = 0;
  virtual void churn_leave(cluster::ResourceIndex site) = 0;
  virtual void churn_crash(cluster::ResourceIndex site) = 0;
  virtual void member_confirmed_dead(cluster::ResourceIndex site) = 0;

  [[nodiscard]] virtual obs::Observer* observer() { return nullptr; }
};

class MembershipService {
 public:
  struct Telemetry {
    std::uint64_t rounds = 0;
    std::uint64_t gossip_messages = 0;
    std::uint64_t suspicions = 0;
    std::uint64_t confirmations = 0;
    std::uint64_t churn_applied = 0;
  };

  explicit MembershipService(MembershipContext& ctx);

  /// Schedules the churn events and the gossip rounds.  Rounds run until
  /// max(window, last churn event) + confirmation_bound so every injected
  /// crash is detected before the event stream drains.
  void start();

  // ---- ground truth ---------------------------------------------------------
  [[nodiscard]] bool crashed(cluster::ResourceIndex i) const {
    return crashed_[i] != 0;
  }
  [[nodiscard]] bool left(cluster::ResourceIndex i) const {
    return left_[i] != 0;
  }
  [[nodiscard]] bool live(cluster::ResourceIndex i) const {
    return crashed_[i] == 0 && left_[i] == 0;
  }
  [[nodiscard]] bool confirmed_dead(cluster::ResourceIndex i) const {
    return confirmed_[i] != 0;
  }
  [[nodiscard]] std::size_t live_count() const;

  /// One kGossip message arrived at its (live) destination.
  void on_gossip(const core::Message& msg);

  [[nodiscard]] const MembershipView& view(cluster::ResourceIndex i) const {
    return views_[i];
  }
  [[nodiscard]] const Telemetry& telemetry() const noexcept { return tel_; }

 private:
  void run_round();
  void apply(const ChurnEvent& ev);
  void send_digest(cluster::ResourceIndex from, cluster::ResourceIndex to,
                   bool pull_reply);
  /// Pushes this round's digest from `from` to `fanout` distinct
  /// partners `from` believes reachable.
  void push_to_partners(cluster::ResourceIndex from);
  /// Meters the transitions scratch_transitions_ holds (observed at
  /// `observer_site`) and confirms any genuine death.
  void note_transitions(cluster::ResourceIndex observer_site);
  void maybe_confirm(cluster::ResourceIndex subject);

  MembershipContext& ctx_;
  MembershipOptions opts_;
  std::vector<MembershipView> views_;
  std::vector<std::uint8_t> crashed_;
  std::vector<std::uint8_t> left_;
  std::vector<std::uint8_t> confirmed_;
  std::vector<MembershipView::Transition> scratch_transitions_;
  std::vector<cluster::ResourceIndex> scratch_candidates_;
  sim::Rng rng_;
  std::uint64_t round_ = 0;
  sim::SimTime horizon_ = 0.0;
  Telemetry tel_;
};

}  // namespace gridfed::membership
