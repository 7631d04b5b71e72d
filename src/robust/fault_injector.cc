#include "robust/fault_injector.h"

#include <utility>

namespace stratlearn::robust {

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(std::move(plan)), rng_(plan_.seed) {}

FaultKind FaultInjector::SampleFault(int experiment, double* magnitude) {
  *magnitude = 1.0;
  // Rules are tried in plan order; the first that fires wins. Each
  // applicable rule consumes exactly one Bernoulli draw until one fires,
  // so the fault stream is a pure function of the injector's RNG state —
  // which is what the checkpoint saves.
  for (size_t i = 0; i < plan_.rules.size(); ++i) {
    const FaultRule& rule = plan_.rules[i];
    if (rule.probability <= 0.0 || rule.kind == FaultKind::kNone) continue;
    if (rule.experiment >= 0 && rule.experiment != experiment) continue;
    if (rng_.NextBernoulli(rule.probability)) {
      *magnitude = rule.magnitude;
      return rule.kind;
    }
  }
  return FaultKind::kNone;
}

int64_t FaultInjector::BackoffCooldown(int open_rounds) const {
  int64_t cooldown = plan_.resilience.breaker_cooldown;
  const int64_t cap = cooldown * 8;
  for (int i = 0; i < open_rounds; ++i) {
    if (cooldown >= cap) return cap;
    cooldown *= 2;
  }
  return cooldown < cap ? cooldown : cap;
}

BreakerDecision FaultInjector::CheckBreaker(ArcId arc, int64_t query) {
  auto it = breakers_.find(arc);
  if (it == breakers_.end() || !Armed(it->second)) {
    return BreakerDecision::kClosed;
  }
  Breaker& breaker = it->second;
  if (query < breaker.open_until) return BreakerDecision::kOpen;
  // Cooldown elapsed: half-open. Exactly one probe is admitted; it
  // resolves through RecordRecovery / RecordInfraFailure on this same
  // attempt, so an unresolved flag can only mean a concurrent attempt
  // raced the probe — keep that one skipped.
  if (breaker.probe_inflight) return BreakerDecision::kOpen;
  breaker.probe_inflight = true;
  return BreakerDecision::kHalfOpenProbe;
}

bool FaultInjector::BreakerOpen(ArcId arc, int64_t query) const {
  auto it = breakers_.find(arc);
  if (it == breakers_.end() || !Armed(it->second)) return false;
  return query < it->second.open_until || it->second.probe_inflight;
}

bool FaultInjector::RecordInfraFailure(ArcId arc, int64_t query) {
  auto existing = breakers_.find(arc);
  if (existing != breakers_.end() && existing->second.probe_inflight) {
    // A failed half-open probe: re-open with capped exponential backoff
    // instead of the base cooldown, so a persistently failing backend
    // is probed less and less often.
    Breaker& breaker = existing->second;
    breaker.probe_inflight = false;
    ++breaker.open_rounds;
    ++breaker.consecutive_failures;
    breaker.open_until = query + BackoffCooldown(breaker.open_rounds) + 1;
    return true;
  }
  if (plan_.resilience.breaker_threshold <= 0) return false;
  Breaker& breaker = breakers_[arc];
  bool was_open = Armed(breaker) && query < breaker.open_until;
  ++breaker.consecutive_failures;
  if (breaker.consecutive_failures < plan_.resilience.breaker_threshold) {
    return false;
  }
  // Open: skip this arc for the next `cooldown` resilient queries, then
  // admit one half-open probe attempt.
  breaker.open_until = query + plan_.resilience.breaker_cooldown + 1;
  breaker.open_rounds = 0;
  return !was_open;
}

bool FaultInjector::RecordRecovery(ArcId arc) {
  auto it = breakers_.find(arc);
  if (it == breakers_.end()) return false;
  bool was_open = Armed(it->second);
  breakers_.erase(it);
  return was_open;
}

FaultInjectorState::BreakerEntry FaultInjector::BreakerLedger(
    ArcId arc) const {
  FaultInjectorState::BreakerEntry entry;
  entry.arc = arc;
  auto it = breakers_.find(arc);
  if (it != breakers_.end()) {
    entry.consecutive_failures = it->second.consecutive_failures;
    entry.open_until = it->second.open_until;
    entry.open_rounds = it->second.open_rounds;
  }
  return entry;
}

FaultInjectorState FaultInjector::SaveState() const {
  FaultInjectorState state;
  state.rng_state = rng_.SaveState();
  state.query_count = query_count_;
  state.breakers.reserve(breakers_.size());
  for (const auto& [arc, breaker] : breakers_) {
    // probe_inflight is intentionally not persisted: a probe resolves
    // within the attempt that issued it, and checkpoints are only
    // written at query boundaries.
    state.breakers.push_back({arc, breaker.consecutive_failures,
                              breaker.open_until, breaker.open_rounds});
  }
  return state;
}

Status FaultInjector::RestoreState(const FaultInjectorState& state) {
  if (state.query_count < 0) {
    return Status::InvalidArgument("negative resilient-query counter");
  }
  rng_.RestoreState(state.rng_state);
  query_count_ = state.query_count;
  breakers_.clear();
  for (const FaultInjectorState::BreakerEntry& entry : state.breakers) {
    if (entry.arc == kInvalidArc || entry.consecutive_failures < 0 ||
        entry.open_rounds < 0) {
      return Status::InvalidArgument("malformed breaker ledger entry");
    }
    breakers_[entry.arc] = {entry.consecutive_failures, entry.open_until,
                            entry.open_rounds, false};
  }
  return Status::OK();
}

}  // namespace stratlearn::robust
