#include "robust/recovery/controller.h"

namespace stratlearn::robust {

std::vector<obs::health::RecoveryLogEntry> RecoveryController::OnWindow(
    const obs::TimeSeriesWindow& window,
    const std::vector<obs::DriftEvent>& drift,
    const std::vector<obs::AlertEvent>& alerts) {
  std::vector<obs::health::RecoveryLogEntry> out;
  for (const RecoveryRule& rule : policy_.rules) {
    Match match;
    for (const obs::DriftEvent& e : drift) {
      if (!MatchesTrigger(rule, e)) continue;
      if (match.count == 0) {
        match.statistic = e.statistic;
        match.reference = e.reference;
        match.threshold = e.threshold;
      }
      ++match.count;
    }
    for (const obs::AlertEvent& e : alerts) {
      if (!MatchesTrigger(rule, e)) continue;
      if (match.count == 0) {
        match.statistic = e.value;
        match.threshold = e.threshold;
      }
      ++match.count;
    }
    if (match.count == 0) continue;
    if (!PassesCooldown(rule, window.index)) continue;
    Fire(rule, window, match, &out);
  }
  return out;
}

obs::health::RecoveryHook RecoveryController::Hook() {
  return [this](const obs::TimeSeriesWindow& window,
                const std::vector<obs::DriftEvent>& drift,
                const std::vector<obs::AlertEvent>& alerts) {
    return OnWindow(window, drift, alerts);
  };
}

bool RecoveryController::PassesCooldown(const RecoveryRule& rule,
                                        int64_t window) const {
  if (rule.cooldown <= 0) return true;
  auto it = last_fired_.find(rule.id);
  return it == last_fired_.end() || window - it->second > rule.cooldown;
}

void RecoveryController::Fire(
    const RecoveryRule& rule, const obs::TimeSeriesWindow& window,
    const Match& match, std::vector<obs::health::RecoveryLogEntry>* out) {
  last_fired_[rule.id] = window.index;
  ++decisions_;
  obs::health::RecoveryLogEntry entry;
  entry.window = window.index;
  entry.rule = rule.id;
  entry.trigger = rule.trigger;
  entry.action = rule.action;
  entry.matched = match.count;
  out->push_back(entry);
  if (!live_) return;

  std::string outcome = "skipped_unsupported";
  if (pib_ != nullptr) {
    pib_->Rebaseline();
    outcome = "applied";
    ++applied_;
  }
  obs::TraceSink* sink = observer_ != nullptr ? observer_->sink() : nullptr;
  if (sink == nullptr) return;
  obs::RecoveryEvent event;
  event.t_us = observer_->NowUs();
  event.rule = rule.id;
  event.trigger = rule.trigger;
  event.action = rule.action;
  event.outcome = outcome;
  event.window = window.index;
  event.matched = match.count;
  event.statistic = match.statistic;
  event.reference = match.reference;
  event.threshold = match.threshold;
  sink->On(event);
  if (observer_->audit_enabled()) {
    // The certificate's test is count-based (the detectors' internal
    // breach statistics are not all recoverable from their events):
    // "at least one matching trigger transition occurred in this
    // window", i.e. delta_sum = matched against threshold 1, so
    // audit_verify re-derives the margin by recounting transitions
    // with the same MatchesTrigger the decision used. No delta is
    // charged: recovery resets evidence, it never certifies a claim
    // about expected cost.
    obs::DecisionCertificateEvent cert;
    cert.t_us = observer_->NowUs();
    cert.learner = "recovery";
    cert.decision = rule.id;
    cert.verdict = rule.action;
    cert.at_context = window.index;
    cert.samples = match.count;
    cert.trials = 1;
    cert.subject = -1;
    cert.mean = match.statistic;
    cert.delta_sum = static_cast<double>(match.count);
    cert.threshold = 1.0;
    cert.margin = static_cast<double>(match.count) - 1.0;
    sink->On(cert);
  }
}

}  // namespace stratlearn::robust
