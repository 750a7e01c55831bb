#include "baselines/broadcast.hpp"

#include <algorithm>
#include <limits>
#include <memory>

#include "cluster/catalog.hpp"
#include "cluster/lrms.hpp"
#include "economy/cost_model.hpp"
#include "sim/check.hpp"
#include "sim/simulation.hpp"
#include "workload/synthetic.hpp"

namespace gridfed::baselines {

namespace {

/// In-process driver for the broadcast superscheduler.  One grid scheduler
/// (GS) per cluster; message exchange is synchronous (the SC'03 study also
/// abstracts latency away) but every query/reply/transfer is counted.
class BroadcastDriver {
 public:
  BroadcastDriver(const BroadcastConfig& config, std::size_t n_resources)
      : cfg_(config), specs_(cluster::replicated_specs(n_resources)) {
    result_.strategy = cfg_.strategy;
    result_.system_size = specs_.size();
    lrms_.reserve(specs_.size());
    volunteer_.assign(specs_.size(), false);
    for (std::size_t i = 0; i < specs_.size(); ++i) {
      lrms_.push_back(std::make_unique<cluster::Lrms>(
          sim_, specs_[i], static_cast<cluster::ResourceIndex>(i)));
      lrms_.back()->set_completion_handler(
          [this](const cluster::CompletedJob& done) {
            result_.response_time.add(done.reservation.completion -
                                      done.job.submit);
            if (done.job.origin != done.executed_on) {
              // job-completion transfer home.
              result_.total_messages += 1;
            }
          });
    }
  }

  BroadcastResult run() {
    load_workload();
    arm_volunteer_scans();
    sim_.run();
    return result_;
  }

 private:
  [[nodiscard]] bool uses_volunteers() const noexcept {
    return cfg_.strategy != BroadcastStrategy::kSenderInitiated;
  }
  [[nodiscard]] bool uses_sender_broadcast() const noexcept {
    return cfg_.strategy != BroadcastStrategy::kReceiverInitiated;
  }

  void load_workload() {
    const auto traces = workload::generate_federation_workload(
        specs_, cfg_.window, cfg_.seed);
    cluster::JobId next_id = 1;
    for (const auto& trace : traces) {
      const auto& origin = specs_[trace.resource];
      for (const auto& raw : trace.jobs) {
        cluster::Job job =
            workload::to_job(raw, next_id++, trace.resource, origin);
        // Same fabricated deadline as the federation experiments so
        // acceptance is comparable (budget unused here).
        economy::fabricate_qos(job, origin,
                               economy::CostModel::kWallTime);
        arrivals_.push_back(job);
      }
    }
    // Streamed like the federation's arrivals: one kArrival event at a
    // time, in (submit, id) order.
    std::sort(arrivals_.begin(), arrivals_.end(), cluster::arrives_before);
    if (!arrivals_.empty()) arm_arrival();
  }

  void arm_arrival() {
    sim_.schedule_at(arrivals_[next_arrival_].submit, sim::EventKind::kArrival,
                     [this] {
                       on_arrival(arrivals_[next_arrival_++]);
                       if (next_arrival_ < arrivals_.size()) arm_arrival();
                     });
  }

  void arm_volunteer_scans() {
    if (!uses_volunteers()) return;
    for (sim::SimTime t = cfg_.volunteer_period; t <= cfg_.window;
         t += cfg_.volunteer_period) {
      sim_.schedule_at(t, sim::EventKind::kPeriodic, [this] {
        for (std::size_t i = 0; i < lrms_.size(); ++i) {
          const bool below =
              lrms_[i]->instantaneous_load() < cfg_.volunteer_load_threshold;
          if (below && !volunteer_[i]) {
            // RUS broadcast to every other GS.
            result_.volunteer_messages += lrms_.size() - 1;
            result_.total_messages += lrms_.size() - 1;
          }
          volunteer_[i] = below;
        }
      });
    }
  }

  void on_arrival(const cluster::Job& job) {
    result_.total_jobs += 1;
    auto& home = *lrms_[job.origin];
    const auto& origin_spec = specs_[job.origin];

    // Local path: AWT below phi and deadline feasible.
    if (job.processors <= origin_spec.processors) {
      const sim::SimTime exec =
          cluster::execution_time(job, origin_spec, origin_spec);
      const sim::SimTime wait = home.expected_wait(job.processors, exec);
      const sim::SimTime est = home.estimate_completion(job, exec);
      if (wait <= cfg_.awt_threshold && est <= job.absolute_deadline()) {
        home.submit(job, exec);
        result_.accepted += 1;
        result_.msgs_per_job.add(0.0);
        return;
      }
    }
    migrate(job);
  }

  void migrate(const cluster::Job& job) {
    // Candidate set: everyone (S-I / Sy-I) or current volunteers (R-I).
    std::uint64_t query_messages = 0;
    double best_tc = std::numeric_limits<double>::infinity();
    double best_load = std::numeric_limits<double>::infinity();
    std::size_t best = specs_.size();
    const auto& origin_spec = specs_[job.origin];

    for (std::size_t m = 0; m < specs_.size(); ++m) {
      if (m == job.origin) continue;
      if (!uses_sender_broadcast() && !volunteer_[m]) continue;
      query_messages += 2;  // demand query + AWT/ERT/RUS reply
      if (job.processors > specs_[m].processors) continue;
      const sim::SimTime ert =
          cluster::execution_time(job, origin_spec, specs_[m]);
      const sim::SimTime awt = lrms_[m]->expected_wait(job.processors, ert);
      const double tc = awt + ert;  // turnaround cost
      const double rus = lrms_[m]->instantaneous_load();
      if (tc < best_tc || (tc == best_tc && rus < best_load)) {
        best_tc = tc;
        best_load = rus;
        best = m;
      }
    }
    result_.total_messages += query_messages;

    // Also consider keeping the job at home (queue locally despite AWT)
    // when the home can still make the deadline and no better site exists.
    bool placed = false;
    if (best < specs_.size()) {
      const sim::SimTime ert =
          cluster::execution_time(job, origin_spec, specs_[best]);
      const sim::SimTime est = lrms_[best]->estimate_completion(job, ert);
      if (est <= job.absolute_deadline()) {
        lrms_[best]->submit(job, ert);
        result_.total_messages += 1;  // the job transfer
        result_.migrated += 1;
        result_.accepted += 1;
        result_.msgs_per_job.add(static_cast<double>(query_messages + 2));
        placed = true;
      }
    }
    if (!placed && job.processors <= origin_spec.processors) {
      const sim::SimTime exec =
          cluster::execution_time(job, origin_spec, origin_spec);
      const sim::SimTime est =
          lrms_[job.origin]->estimate_completion(job, exec);
      if (est <= job.absolute_deadline()) {
        lrms_[job.origin]->submit(job, exec);
        result_.accepted += 1;
        result_.msgs_per_job.add(static_cast<double>(query_messages));
        placed = true;
      }
    }
    if (!placed) {
      result_.rejected += 1;
      result_.msgs_per_job.add(static_cast<double>(query_messages));
    }
  }

  BroadcastConfig cfg_;
  std::vector<cluster::ResourceSpec> specs_;
  sim::Simulation sim_;
  std::vector<std::unique_ptr<cluster::Lrms>> lrms_;
  std::vector<bool> volunteer_;
  std::vector<cluster::Job> arrivals_;  ///< (submit, id) order
  std::size_t next_arrival_ = 0;
  BroadcastResult result_;
};

}  // namespace

BroadcastResult run_broadcast(const BroadcastConfig& config,
                              std::size_t n_resources) {
  GF_EXPECTS(n_resources > 0);
  return BroadcastDriver(config, n_resources).run();
}

}  // namespace gridfed::baselines
