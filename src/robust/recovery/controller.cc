#include "robust/recovery/controller.h"

#include <cstdio>
#include <utility>

#include "util/string_util.h"

namespace stratlearn::robust {

CheckpointRing::CheckpointRing(std::string base_path, int64_t slots)
    : base_(std::move(base_path)), slots_(slots) {}

std::string CheckpointRing::SlotPath(int64_t slot) const {
  return StrFormat("%s.ring%lld", base_.c_str(), static_cast<long long>(slot));
}

void CheckpointRing::RestoreCursor(int64_t cursor, int64_t writes) {
  if (slots_ <= 0) return;
  if (cursor < 0 || cursor >= slots_ || writes < 0) return;
  cursor_ = cursor;
  writes_ = writes;
}

Status CheckpointRing::Write(const CheckpointData& data) {
  if (slots_ <= 0) {
    return Status::FailedPrecondition("checkpoint ring has no slots");
  }
  Status status = WriteCheckpoint(SlotPath(cursor_), data);
  if (!status.ok()) return status;
  cursor_ = (cursor_ + 1) % slots_;
  ++writes_;
  return Status::OK();
}

Result<CheckpointData> CheckpointRing::LoadNewestGood(
    const InferenceGraph& graph) const {
  Result<CheckpointData> best =
      Status::NotFound("no known-good ring checkpoint");
  int64_t best_queries = -1;
  for (int64_t slot = 0; slot < slots_; ++slot) {
    Result<CheckpointData> data = LoadCheckpoint(SlotPath(slot), graph);
    if (!data.ok()) continue;  // missing or corrupt slot: skip it
    if (!data->health.present || !data->health.healthy) continue;
    if (data->queries_done > best_queries) {
      best_queries = data->queries_done;
      best = std::move(data);
    }
  }
  return best;
}

std::vector<obs::health::RecoveryLogEntry> RecoveryController::OnWindow(
    const obs::TimeSeriesWindow& window,
    const std::vector<obs::DriftEvent>& drift,
    const std::vector<obs::AlertEvent>& alerts) {
  std::vector<obs::health::RecoveryLogEntry> out;
  for (const RecoveryRule& rule : policy_.rules) {
    if (RecoveryActionIsArcScoped(rule.action)) {
      // One firing per drifted arc. std::map keeps arc order (and so
      // the transcript) deterministic. Alert transitions carry no arc
      // and never justify a scoped action (MatchesTrigger agrees).
      std::map<int64_t, Match> per_arc;
      for (const obs::DriftEvent& e : drift) {
        if (!MatchesTrigger(rule, e)) continue;
        Match& m = per_arc[e.arc];
        if (m.count == 0) {
          m.statistic = e.statistic;
          m.reference = e.reference;
          m.threshold = e.threshold;
        }
        ++m.count;
      }
      for (const auto& [arc, match] : per_arc) {
        if (!PassesCooldown(rule, arc, window.index)) continue;
        Fire(rule, window, arc, match, &out);
      }
    } else {
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
      if (!PassesCooldown(rule, -1, window.index)) continue;
      Fire(rule, window, -1, match, &out);
    }
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

bool RecoveryController::PassesCooldown(const RecoveryRule& rule, int64_t arc,
                                        int64_t window) const {
  if (rule.cooldown <= 0) return true;
  auto it = last_fired_.find({rule.id, arc});
  return it == last_fired_.end() || window - it->second > rule.cooldown;
}

void RecoveryController::Fire(
    const RecoveryRule& rule, const obs::TimeSeriesWindow& window,
    int64_t arc, const Match& match,
    std::vector<obs::health::RecoveryLogEntry>* out) {
  last_fired_[{rule.id, arc}] = window.index;
  ++decisions_;
  obs::health::RecoveryLogEntry entry;
  entry.window = window.index;
  entry.rule = rule.id;
  entry.trigger = rule.trigger;
  entry.action = rule.action;
  entry.arc = arc;
  entry.matched = match.count;
  out->push_back(entry);
  if (!live_) return;

  std::string outcome = Execute(rule, arc);
  if (outcome == "applied") ++applied_;
  obs::TraceSink* sink = observer_ != nullptr ? observer_->sink() : nullptr;
  if (sink == nullptr) return;
  obs::RecoveryEvent event;
  event.t_us = observer_->NowUs();
  event.rule = rule.id;
  event.trigger = rule.trigger;
  event.action = rule.action;
  event.outcome = outcome;
  event.arc = arc;
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
    cert.subject = arc;
    cert.mean = match.statistic;
    cert.delta_sum = static_cast<double>(match.count);
    cert.threshold = 1.0;
    cert.margin = static_cast<double>(match.count) - 1.0;
    sink->On(cert);
  }
}

std::string RecoveryController::Execute(const RecoveryRule& rule,
                                        int64_t arc) {
  if (rule.action == "rebaseline") {
    if (pib_ == nullptr) return "skipped_unsupported";
    pib_->Rebaseline(rule.trials_factor);
    return "applied";
  }
  if (rule.action == "restart_scoped") {
    if (pib_ == nullptr || arc < 0) return "skipped_unsupported";
    pib_->RestartScoped(static_cast<ArcId>(arc));
    return "applied";
  }
  if (rule.action == "quarantine") {
    if (injector_ == nullptr || arc < 0) return "skipped_unsupported";
    int64_t cooldown = rule.probe_cooldown > 0
                           ? rule.probe_cooldown
                           : injector_->resilience().breaker_cooldown;
    int64_t query = injector_->queries_begun();
    FaultInjectorState::BreakerEntry ledger =
        injector_->Quarantine(static_cast<ArcId>(arc), query, cooldown);
    if (observer_ != nullptr && observer_->sink() != nullptr) {
      int experiment =
          graph_ != nullptr &&
                  static_cast<size_t>(arc) < graph_->num_arcs()
              ? graph_->arc(static_cast<ArcId>(arc)).experiment
              : -1;
      observer_->sink()->On(obs::BreakerEvent{
          observer_->NowUs(), query, static_cast<uint32_t>(arc), experiment,
          "open", ledger.consecutive_failures, ledger.open_until});
    }
    return "applied";
  }
  if (rule.action == "rollback") {
    if (ring_ == nullptr || pib_ == nullptr || graph_ == nullptr) {
      return "skipped_unsupported";
    }
    Result<CheckpointData> good = ring_->LoadNewestGood(*graph_);
    if (!good.ok()) {
      if (!warned_no_checkpoint_) {
        warned_no_checkpoint_ = true;
        std::fprintf(stderr,
                     "warning: recovery rollback found no known-good ring "
                     "checkpoint; continuing without restoring\n");
      }
      return "skipped_no_checkpoint";
    }
    // Only the learner's estimate state rewinds — the workload position
    // and RNG march on (the world cannot be rolled back), and the audit
    // ledger keeps its current spend: confidence already consumed by
    // discarded decisions stays consumed, so Theorem 1's lifetime
    // budget remains an over-count, never an under-count.
    Pib::Checkpoint target = good->pib;
    Pib::Checkpoint current = pib_->GetCheckpoint();
    target.audit_delta_spent = current.audit_delta_spent;
    target.audit_rounds = current.audit_rounds;
    Status restored = pib_->RestoreCheckpoint(target);
    if (!restored.ok()) {
      if (!warned_no_checkpoint_) {
        warned_no_checkpoint_ = true;
        std::fprintf(stderr,
                     "warning: recovery rollback could not restore the ring "
                     "checkpoint (%s); continuing without restoring\n",
                     restored.message().c_str());
      }
      return "skipped_no_checkpoint";
    }
    return "applied";
  }
  return "skipped_unsupported";
}

}  // namespace stratlearn::robust
