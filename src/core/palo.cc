#include "core/palo.h"

#include "stats/chernoff.h"
#include "stats/sequential.h"
#include "util/check.h"

namespace stratlearn {

Palo::Palo(const InferenceGraph* graph, Strategy initial, Options options,
           obs::Observer* observer)
    : graph_(graph),
      estimator_(graph),
      options_(options),
      hood_(*graph, std::move(initial), AllSiblingSwaps(*graph)),
      under_sums_(hood_.size(), 0.0),
      over_sums_(hood_.size(), 0.0),
      finished_(hood_.size() == 0) {  // nothing to improve
  STRATLEARN_CHECK(options_.delta > 0.0 && options_.delta < 1.0);
  STRATLEARN_CHECK(options_.epsilon > 0.0);
  STRATLEARN_CHECK(options_.test_every >= 1);
  set_observer(observer);
}

void Palo::set_observer(obs::Observer* observer) {
  observer_ = observer;
  handles_ = Handles{};
  if (observer_ == nullptr || observer_->metrics() == nullptr) return;
  obs::MetricsRegistry* r = observer_->metrics();
  handles_.contexts = &r->GetCounter("palo.contexts");
  handles_.moves = &r->GetCounter("palo.moves");
  handles_.stops = &r->GetCounter("palo.stops");
}

bool Palo::CheckStop(double* worst_certificate, size_t* worst_neighbor,
                     double* delta_i) {
  *worst_certificate = 0.0;
  *worst_neighbor = hood_.size();
  // delta/2 budget for stopping, spread over the sequential schedule and
  // the |T| simultaneous neighbours.
  *delta_i =
      SequentialDelta(std::max<int64_t>(1, trials_), options_.delta / 2.0) /
      static_cast<double>(std::max<size_t>(1, hood_.size()));
  if (*delta_i <= 0.0 || *delta_i >= 1.0) *delta_i = options_.delta / 2.0;
  if (samples_ == 0) return false;
  for (size_t j = 0; j < hood_.size(); ++j) {
    double mean_over = over_sums_[j] / static_cast<double>(samples_);
    double dev =
        HoeffdingDeviation(samples_, *delta_i, hood_.neighbors()[j].range);
    if (*worst_neighbor == hood_.size() ||
        mean_over + dev > *worst_certificate) {
      *worst_certificate = mean_over + dev;
      *worst_neighbor = j;
    }
    if (mean_over + dev > options_.epsilon) return false;
  }
  return true;
}

bool Palo::Observe(const Trace& trace) {
  if (finished_) return false;
  ++contexts_;
  ++samples_;
  trials_ += static_cast<int64_t>(hood_.size());
  estimator_.AddUnderEstimates(trace, hood_, &under_sums_);
  std::vector<double> deltas;
  estimator_.OverEstimates(trace, hood_, &deltas);
  for (size_t j = 0; j < deltas.size(); ++j) over_sums_[j] += deltas[j];
  if (handles_.contexts != nullptr) handles_.contexts->Increment();
  if (contexts_ % options_.test_every != 0) return false;

  // Climb exactly like PIB, at confidence delta/2: one Equation-6 factor
  // per round, times each neighbour's range.
  const double factor = SequentialSumFactor(
      samples_, std::max<int64_t>(1, trials_), options_.delta / 2.0);
  for (size_t j = 0; j < hood_.size(); ++j) {
    const SwapNeighborhood::Neighbor& n = hood_.neighbors()[j];
    const double under_sum = under_sums_[j];
    double threshold = n.range * factor;
    if (under_sum > 0.0 && under_sum >= threshold) {
      ++moves_;
      if (handles_.moves != nullptr) handles_.moves->Increment();
      if (observer_ != nullptr) {
        double delta_step = SequentialDelta(std::max<int64_t>(1, trials_),
                                            options_.delta / 2.0);
        if (obs::TraceSink* sink = observer_->sink()) {
          obs::ClimbMoveEvent event;
          event.t_us = observer_->NowUs();
          event.learner = "palo";
          event.move_index = moves_ - 1;
          event.at_context = contexts_;
          event.samples_used = samples_;
          event.swap = n.swap.ToString(*graph_);
          event.delta_sum = under_sum;
          event.threshold = threshold;
          event.margin = under_sum - threshold;
          event.delta_spent = delta_step;
          sink->On(event);
        }
        if (observer_->audit_enabled()) {
          audit_delta_spent_ += delta_step;
          if (obs::TraceSink* sink = observer_->sink()) {
            obs::DecisionCertificateEvent e;
            e.t_us = observer_->NowUs();
            e.learner = "palo";
            e.decision = "climb";
            e.verdict = "commit";
            e.at_context = contexts_;
            e.samples = samples_;
            e.trials = trials_;
            e.subject = static_cast<int64_t>(j);
            e.mean = under_sum / static_cast<double>(samples_);
            e.delta_sum = under_sum;
            e.threshold = threshold;
            e.margin = under_sum - threshold;
            e.range = n.range;
            e.epsilon_n =
                n.range > 0.0
                    ? HoeffdingDeviation(samples_, delta_step, n.range)
                    : 0.0;
            e.delta_step = delta_step;
            e.delta_budget = options_.delta;
            e.delta_spent_total = audit_delta_spent_;
            e.bound_samples =
                e.mean > 0.0 && n.range > 0.0
                    ? SampleSizeForDeviation(e.mean, delta_step, n.range)
                    : 0;
            e.epsilon = options_.epsilon;
            sink->On(e);
          }
        }
      }
      // Climb: a fresh epoch over the new strategy's neighbourhood.
      hood_ = SwapNeighborhood(*graph_, n.strategy, AllSiblingSwaps(*graph_));
      under_sums_.assign(hood_.size(), 0.0);
      over_sums_.assign(hood_.size(), 0.0);
      samples_ = 0;
      if (hood_.size() == 0) finished_ = true;  // nothing to improve
      return true;
    }
  }
  double worst_certificate = 0.0;
  size_t worst_neighbor = hood_.size();
  double stop_delta_i = 0.0;
  if (CheckStop(&worst_certificate, &worst_neighbor, &stop_delta_i)) {
    finished_ = true;
    if (handles_.stops != nullptr) handles_.stops->Increment();
    if (observer_ != nullptr) {
      if (obs::TraceSink* sink = observer_->sink()) {
        sink->On(obs::PaloStopEvent{observer_->NowUs(), contexts_, moves_,
                                    options_.epsilon, worst_certificate});
      }
      if (observer_->audit_enabled() && worst_neighbor < hood_.size()) {
        audit_delta_spent_ += stop_delta_i;
        if (obs::TraceSink* sink = observer_->sink()) {
          const double worst_range = hood_.neighbors()[worst_neighbor].range;
          obs::DecisionCertificateEvent e;
          e.t_us = observer_->NowUs();
          e.learner = "palo";
          e.decision = "stop";
          e.verdict = "stop";
          e.at_context = contexts_;
          e.samples = samples_;
          e.trials = trials_;
          e.subject = static_cast<int64_t>(worst_neighbor);
          e.mean = over_sums_[worst_neighbor] / static_cast<double>(samples_);
          // For the stop test the statistic must stay *below* the
          // threshold (epsilon), so the margin is negative on success.
          e.delta_sum = worst_certificate;
          e.threshold = options_.epsilon;
          e.margin = worst_certificate - options_.epsilon;
          e.range = worst_range;
          e.epsilon_n =
              worst_range > 0.0
                  ? HoeffdingDeviation(samples_, stop_delta_i, worst_range)
                  : 0.0;
          e.delta_step = stop_delta_i;
          e.delta_budget = options_.delta;
          e.delta_spent_total = audit_delta_spent_;
          e.bound_samples =
              worst_range > 0.0
                  ? SampleSizeForDeviation(options_.epsilon, stop_delta_i,
                                           worst_range)
                  : 0;
          e.epsilon = options_.epsilon;
          sink->On(e);
        }
      }
    }
  }
  return false;
}

}  // namespace stratlearn
