#include "core/pib1.h"

#include "stats/chernoff.h"
#include "util/check.h"

namespace stratlearn {

Pib1::Pib1(const InferenceGraph* graph, Strategy current, SiblingSwap swap,
           Options options, obs::Observer* observer)
    : estimator_(graph),
      hood_(*graph, std::move(current), {swap}),
      options_(options),
      range_(SwapRange(*graph, hood_.strategy(), swap)),
      delta_sums_(hood_.size(), 0.0) {
  STRATLEARN_CHECK(options_.delta > 0.0 && options_.delta < 1.0);
  set_observer(observer);
}

void Pib1::set_observer(obs::Observer* observer) {
  observer_ = observer;
  handles_ = Handles{};
  if (observer_ == nullptr || observer_->metrics() == nullptr) return;
  obs::MetricsRegistry* r = observer_->metrics();
  handles_.samples = &r->GetCounter("pib1.samples");
  handles_.delta_sum = &r->GetGauge("pib1.delta_sum");
  handles_.threshold = &r->GetGauge("pib1.threshold");
}

void Pib1::Observe(const Trace& trace) {
  // A no-op swap has no neighbour: its Delta is identically zero.
  estimator_.AddUnderEstimates(trace, hood_, &delta_sums_);
  ++samples_;
  if (observer_ == nullptr) return;
  if (handles_.samples != nullptr) {
    handles_.samples->Increment();
    handles_.delta_sum->Set(delta_sum());
    handles_.threshold->Set(Threshold());
  }
  if (obs::TraceSink* sink = observer_->sink()) {
    sink->On(obs::SequentialTestEvent{
        observer_->NowUs(), "pib1", samples_, samples_, /*trial_count=*/1,
        /*best_neighbor=*/0, delta_sum(), Threshold(), ShouldSwitch()});
    // The one-shot filter's single decision: certify the first
    // observation on which Equation 2 declares the alternative better.
    // The whole delta budget is spent on this one test.
    if (observer_->audit_enabled() && !audit_reported_ && ShouldSwitch()) {
      audit_reported_ = true;
      obs::DecisionCertificateEvent e;
      e.t_us = observer_->NowUs();
      e.learner = "pib1";
      e.decision = "stop";
      e.verdict = "stop";
      e.at_context = samples_;
      e.samples = samples_;
      e.trials = 1;
      e.subject = 0;
      e.mean = delta_sum() / static_cast<double>(samples_);
      e.delta_sum = delta_sum();
      e.threshold = Threshold();
      e.margin = delta_sum() - e.threshold;
      e.range = range_;
      e.epsilon_n = range_ > 0.0
                        ? HoeffdingDeviation(samples_, options_.delta, range_)
                        : 0.0;
      e.delta_step = options_.delta;
      e.delta_budget = options_.delta;
      e.delta_spent_total = options_.delta;
      e.bound_samples =
          e.mean > 0.0 && range_ > 0.0
              ? SampleSizeForDeviation(e.mean, options_.delta, range_)
              : 0;
      sink->On(e);
    }
  }
}

double Pib1::Threshold() const {
  if (samples_ == 0) return 0.0;
  return SumThreshold(samples_, options_.delta, range_);
}

bool Pib1::ShouldSwitch() const {
  if (samples_ == 0) return false;
  return delta_sum() >= Threshold() && delta_sum() > 0.0;
}

ThreeCounterPib1::ThreeCounterPib1(double fstar_first, double fstar_second,
                                   double delta)
    : fstar_first_(fstar_first), fstar_second_(fstar_second), delta_(delta) {
  STRATLEARN_CHECK(fstar_first_ > 0.0);
  STRATLEARN_CHECK(fstar_second_ > 0.0);
  STRATLEARN_CHECK(delta_ > 0.0 && delta_ < 1.0);
}

double ThreeCounterPib1::DeltaSum() const {
  return static_cast<double>(k_second_) * fstar_first_ -
         static_cast<double>(k_first_) * fstar_second_;
}

double ThreeCounterPib1::Threshold() const {
  if (m_ == 0) return 0.0;
  return SumThreshold(m_, delta_, fstar_first_ + fstar_second_);
}

bool ThreeCounterPib1::ShouldSwitch() const {
  if (m_ == 0) return false;
  return DeltaSum() >= Threshold() && DeltaSum() > 0.0;
}

}  // namespace stratlearn
