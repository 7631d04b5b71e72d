#include "core/pib.h"

#include <algorithm>

#include "stats/chernoff.h"
#include "stats/sequential.h"
#include "util/check.h"

namespace stratlearn {

Pib::Pib(const InferenceGraph* graph, Strategy initial, Options options,
         obs::Observer* observer)
    : Pib(graph, std::move(initial), AllSiblingSwaps(*graph), options,
          observer) {}

Pib::Pib(const InferenceGraph* graph, Strategy initial,
         std::vector<SiblingSwap> transformations, Options options,
         obs::Observer* observer)
    : graph_(graph),
      estimator_(graph),
      transformations_(std::move(transformations)),
      options_(options),
      hood_(*graph, std::move(initial), transformations_),
      delta_sums_(hood_.size(), 0.0) {
  STRATLEARN_CHECK(options_.delta > 0.0 && options_.delta < 1.0);
  STRATLEARN_CHECK(options_.test_every >= 1);
  set_observer(observer);
}

void Pib::set_observer(obs::Observer* observer) {
  observer_ = observer;
  handles_ = Handles{};
  if (observer_ == nullptr || observer_->metrics() == nullptr) return;
  obs::MetricsRegistry* r = observer_->metrics();
  handles_.contexts = &r->GetCounter("pib.contexts");
  handles_.trials = &r->GetCounter("pib.trials");
  handles_.tests = &r->GetCounter("pib.tests");
  handles_.moves = &r->GetCounter("pib.moves");
}

double Pib::ThresholdFactor() const {
  if (samples_ == 0 || trials_ == 0) return 0.0;
  return SequentialSumFactor(samples_, trials_, options_.delta);
}

double Pib::ThresholdFor(size_t neighbor) const {
  STRATLEARN_CHECK(neighbor < hood_.size());
  return hood_.neighbors()[neighbor].range * ThresholdFactor();
}

double Pib::DeltaSumFor(size_t neighbor) const {
  STRATLEARN_CHECK(neighbor < hood_.size());
  return delta_sums_[neighbor];
}

PibSnapshot Pib::Snapshot() const {
  PibSnapshot snap;
  snap.contexts = contexts_;
  snap.trials = trials_;
  snap.samples_in_epoch = samples_;
  snap.delta = options_.delta;
  snap.current_test_delta =
      trials_ > 0 ? SequentialDelta(trials_, options_.delta) : 0.0;
  snap.neighbors.reserve(hood_.size());
  const double factor = ThresholdFactor();
  for (size_t j = 0; j < hood_.size(); ++j) {
    const SwapNeighborhood::Neighbor& n = hood_.neighbors()[j];
    PibSnapshot::Neighbor view;
    view.swap = n.swap.ToString(*graph_);
    view.delta_sum = delta_sums_[j];
    view.threshold = n.range * factor;
    view.margin = view.delta_sum - view.threshold;
    view.range = n.range;
    snap.neighbors.push_back(std::move(view));
  }
  snap.moves.reserve(moves_.size());
  for (const Move& m : moves_) {
    PibSnapshot::Move view;
    view.at_context = m.at_context;
    view.samples_used = m.samples_used;
    view.swap = m.swap.ToString(*graph_);
    view.delta_sum = m.delta_sum;
    view.threshold = m.threshold;
    view.delta_spent = m.delta_spent;
    snap.delta_spent_moves += m.delta_spent;
    snap.moves.push_back(std::move(view));
  }
  return snap;
}

Pib::Checkpoint Pib::GetCheckpoint() const {
  Checkpoint checkpoint;
  checkpoint.strategy = strategy();
  checkpoint.contexts = contexts_;
  checkpoint.trials = trials_;
  checkpoint.samples = samples_;
  checkpoint.neighbor_delta_sums = delta_sums_;
  checkpoint.moves = moves_;
  checkpoint.audit_delta_spent = audit_delta_spent_;
  checkpoint.audit_rounds = audit_rounds_;
  return checkpoint;
}

Status Pib::RestoreCheckpoint(const Checkpoint& checkpoint) {
  if (checkpoint.contexts < 0 || checkpoint.trials < 0 ||
      checkpoint.samples < 0 || checkpoint.samples > checkpoint.contexts) {
    return Status::InvalidArgument("inconsistent learner counters");
  }
  if (checkpoint.audit_delta_spent < 0.0 || checkpoint.audit_rounds < 0) {
    return Status::InvalidArgument("inconsistent audit ledger");
  }
  if (checkpoint.strategy.size() != graph_->num_arcs()) {
    return Status::InvalidArgument(
        "checkpointed strategy does not cover the graph's arcs");
  }
  // The checkpointed strategy's neighbourhood size tells us whether the
  // Delta~ sums line up; it is built aside so a rejected checkpoint
  // leaves this learner untouched.
  SwapNeighborhood hood(*graph_, checkpoint.strategy, transformations_);
  if (hood.size() != checkpoint.neighbor_delta_sums.size()) {
    return Status::InvalidArgument(
        "checkpoint carries a different neighbourhood size than the "
        "strategy induces");
  }
  hood_ = std::move(hood);
  delta_sums_ = checkpoint.neighbor_delta_sums;
  // Observe skips the exact +0.0 a neighbour outside the entered regions
  // would add, which is bit-neutral only for sums that never hold -0.0;
  // a file may carry one, so it becomes +0.0 here.
  for (double& sum : delta_sums_) sum += 0.0;
  contexts_ = checkpoint.contexts;
  trials_ = checkpoint.trials;
  samples_ = checkpoint.samples;
  moves_ = checkpoint.moves;
  audit_delta_spent_ = checkpoint.audit_delta_spent;
  audit_rounds_ = checkpoint.audit_rounds;
  return Status::OK();
}

void Pib::Rebaseline() {
  delta_sums_.assign(delta_sums_.size(), 0.0);
  samples_ = 0;
}

obs::DecisionCertificateEvent Pib::MakeAuditCertificate(size_t neighbor,
                                                        const char* verdict,
                                                        double threshold) {
  const double range = hood_.neighbors()[neighbor].range;
  const double delta_sum = delta_sums_[neighbor];
  double delta_step =
      SequentialDelta(std::max<int64_t>(1, trials_), options_.delta);
  audit_delta_spent_ += delta_step;
  obs::DecisionCertificateEvent e;
  e.t_us = observer_->NowUs();
  e.learner = "pib";
  e.decision = "climb";
  e.verdict = verdict;
  e.at_context = contexts_;
  e.samples = samples_;
  e.trials = trials_;
  e.subject = static_cast<int64_t>(neighbor);
  e.mean = samples_ > 0 ? delta_sum / static_cast<double>(samples_) : 0.0;
  e.delta_sum = delta_sum;
  e.threshold = threshold;
  e.margin = delta_sum - threshold;
  e.range = range;
  e.epsilon_n = samples_ > 0 && range > 0.0
                    ? HoeffdingDeviation(samples_, delta_step, range)
                    : 0.0;
  e.delta_step = delta_step;
  e.delta_budget = options_.delta;
  e.delta_spent_total = audit_delta_spent_;
  e.bound_samples =
      e.mean > 0.0 && range > 0.0
          ? SampleSizeForDeviation(e.mean, delta_step, range)
          : 0;
  return e;
}

bool Pib::Observe(const Trace& trace) {
  ++contexts_;
  ++samples_;
  trials_ += static_cast<int64_t>(hood_.size());
  estimator_.AddUnderEstimates(trace, hood_, &delta_sums_);
  if (handles_.contexts != nullptr) {
    handles_.contexts->Increment();
    handles_.trials->Increment(static_cast<int64_t>(hood_.size()));
  }
  if (contexts_ % options_.test_every != 0) return false;

  // One test round: the first neighbour (in T order) whose sum crosses
  // its Equation-6 threshold wins; the largest-margin neighbour is
  // reported either way so traces show how close the round came. Every
  // neighbour's threshold is its range times the round's one factor.
  const size_t k = hood_.size();
  const double factor = ThresholdFactor();
  size_t fired = k;
  size_t best = k;
  double best_margin = 0.0;
  double best_threshold = 0.0;
  double fired_threshold = 0.0;
  for (size_t j = 0; j < k; ++j) {
    double threshold = hood_.neighbors()[j].range * factor;
    double margin = delta_sums_[j] - threshold;
    if (best == k || margin > best_margin) {
      best = j;
      best_margin = margin;
      best_threshold = threshold;
    }
    if (fired == k && delta_sums_[j] > 0.0 && delta_sums_[j] >= threshold) {
      fired = j;
      fired_threshold = threshold;
    }
  }
  if (handles_.tests != nullptr && k > 0) handles_.tests->Increment();
  if (observer_ != nullptr && k > 0) {
    if (obs::TraceSink* sink = observer_->sink()) {
      sink->On(obs::SequentialTestEvent{
          observer_->NowUs(), "pib", contexts_, samples_, trials_,
          static_cast<int64_t>(best), delta_sums_[best], best_threshold,
          fired != k});
    }
  }
  if (fired == k) {
    // Certify the reject: the best neighbour did not cross its
    // threshold this round. Rejects are the high-volume certificate,
    // so they honour the observer's audit_every subsampling cadence.
    if (observer_ != nullptr && observer_->audit_enabled() && k > 0) {
      ++audit_rounds_;
      if ((audit_rounds_ - 1) % observer_->audit_every() == 0) {
        if (obs::TraceSink* sink = observer_->sink()) {
          sink->On(MakeAuditCertificate(best, "reject", best_threshold));
        }
      }
    }
    return false;
  }

  const SwapNeighborhood::Neighbor& n = hood_.neighbors()[fired];
  Move move;
  move.at_context = contexts_;
  move.samples_used = samples_;
  move.swap = n.swap;
  move.delta_sum = delta_sums_[fired];
  move.threshold = fired_threshold;
  move.delta_spent = SequentialDelta(trials_, options_.delta);
  moves_.push_back(move);
  if (handles_.moves != nullptr) handles_.moves->Increment();
  if (observer_ != nullptr) {
    if (obs::TraceSink* sink = observer_->sink()) {
      obs::ClimbMoveEvent event;
      event.t_us = observer_->NowUs();
      event.learner = "pib";
      event.move_index = static_cast<int64_t>(moves_.size()) - 1;
      event.at_context = contexts_;
      event.samples_used = samples_;
      event.swap = n.swap.ToString(*graph_);
      event.delta_sum = move.delta_sum;
      event.threshold = fired_threshold;
      event.margin = move.delta_sum - fired_threshold;
      event.delta_spent = move.delta_spent;
      sink->On(event);
    }
    if (observer_->audit_enabled()) {
      ++audit_rounds_;
      if (obs::TraceSink* sink = observer_->sink()) {
        sink->On(MakeAuditCertificate(fired, "commit", fired_threshold));
      }
    }
  }
  // Climb: a fresh epoch over the new strategy's neighbourhood.
  hood_ = SwapNeighborhood(*graph_, n.strategy, transformations_);
  delta_sums_.assign(hood_.size(), 0.0);
  samples_ = 0;
  return true;
}

}  // namespace stratlearn
