// audit_verify: independently re-derive an audit certificate stream.
//
// Usage: audit_verify <trace.jsonl> <audit.jsonl> [--recovery=policy]
//
// The audit log (obs::AuditLog) is the learner's own account of why it
// made each statistically significant decision. This tool refuses to
// take that account at face value: it replays the raw event trace the
// run recorded alongside it and re-derives every certificate from
// scratch — per-arc epoch tallies from the ArcAttempt stream, the
// sequential-schedule delta_i, the Equation 2/6 thresholds through the
// very same stats functions the learners call (so agreement is
// bit-exact, not approximate), the running delta ledger, and the regret
// and summary accounting from the QueryEnd stream.
//
// Checked per certificate:
//   - the trace's decision_certificate event matches the audit file's
//     certificate field for field (the file is a faithful transcript);
//   - the "arcs" epoch tallies equal the tallies accumulated from the
//     raw arc_attempt events since the previous certificate;
//   - delta_step follows the published schedule (6/pi^2 sequential for
//     PIB/PALO, delta/(2n) for PAO, the whole budget for PIB_1);
//   - threshold, epsilon_n and bound_samples recompute bit-exactly via
//     SequentialSumThreshold / SumThreshold / HoeffdingDeviation /
//     SampleSizeForDeviation;
//   - margin == delta_sum - threshold, and the verdict agrees with the
//     margin's sign (a commit/stop/met certificate must have crossed,
//     a reject must not have);
//   - the running per-learner sum of delta_step equals
//     delta_spent_total and never exceeds delta_budget;
//   - recovery certificates (learner "recovery") carry the count-based
//     test the controller ran: delta_sum = matched trigger transitions
//     against threshold 1, no delta charged. With --recovery=<policy>
//     the matched count is re-derived by recounting the trace's
//     drift/alert transitions at the certificate's window through the
//     same MatchesTrigger predicate the controller used.
// Plus stream-level checks: regret windows re-derived from QueryEnd
// costs, and the summary record's counters against both streams.
//
// Exit codes: 0 every certificate re-derived cleanly, 1 at least one
// mismatch, 2 usage error or unreadable/malformed input.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include <sstream>

#include "obs/audit/audit_reader.h"
#include "obs/events.h"
#include "obs/trace_reader.h"
#include "obs/trace_sink.h"
#include "robust/recovery/policy.h"
#include "stats/chernoff.h"
#include "stats/sequential.h"
#include "util/string_util.h"
#include "verify/diagnostics.h"
#include "verify/verify.h"

namespace stratlearn {
namespace {

using obs::AuditCertificate;
using obs::AuditFile;
using obs::DecisionCertificateEvent;

// Re-derived regret window, mirroring AuditLog's accounting.
struct ReplayRegret {
  int64_t window_index = 0;
  int64_t queries = 0;
  int64_t queries_total = 0;
  double window_cost = 0.0;
  double total_cost = 0.0;
};

// Collects the raw streams the certificates must be provable from: the
// decision_certificate events themselves (stream copy), the arc_attempt
// tallies per certificate epoch, and the query cost accumulation.
class ReplaySink final : public obs::TraceSink {
 public:
  explicit ReplaySink(int64_t window) : window_(window) {}

  void On(const obs::Event& event) override {
    if (const auto* e = std::get_if<obs::ArcAttemptEvent>(&event)) {
      obs::AuditArcTally& tally = epoch_[e->arc];
      tally.arc = static_cast<int64_t>(e->arc);
      tally.experiment = e->experiment;
      ++tally.attempts;
      if (e->unblocked) ++tally.successes;
      tally.cost += e->cost;
    } else if (const auto* e = std::get_if<obs::QueryEndEvent>(&event)) {
      ++queries_;
      ++window_queries_;
      total_cost_ += e->cost;
      window_cost_ += e->cost;
      if (window_ > 0 && window_queries_ >= window_) CloseWindow();
    } else if (const auto* e = std::get_if<obs::DriftEvent>(&event)) {
      drift_[e->window].push_back(*e);
    } else if (const auto* e = std::get_if<obs::AlertEvent>(&event)) {
      alerts_[e->window].push_back(*e);
    } else if (const auto* e =
                   std::get_if<DecisionCertificateEvent>(&event)) {
      certificates_.push_back(*e);
      std::vector<obs::AuditArcTally> arcs;
      arcs.reserve(epoch_.size());
      for (const auto& [arc, tally] : epoch_) arcs.push_back(tally);
      epoch_arcs_.push_back(std::move(arcs));
      epoch_.clear();
    }
  }

  void Finish() {
    if (window_queries_ > 0) CloseWindow();
  }

  const std::vector<DecisionCertificateEvent>& certificates() const {
    return certificates_;
  }
  const std::vector<std::vector<obs::AuditArcTally>>& epoch_arcs() const {
    return epoch_arcs_;
  }
  const std::vector<ReplayRegret>& regrets() const { return regrets_; }
  int64_t queries() const { return queries_; }
  double total_cost() const { return total_cost_; }

  /// Drift/alert transitions grouped by the health window that fired
  /// them, for re-deriving recovery certificates' matched counts.
  const std::vector<obs::DriftEvent>* DriftAt(int64_t window) const {
    auto it = drift_.find(window);
    return it == drift_.end() ? nullptr : &it->second;
  }
  const std::vector<obs::AlertEvent>* AlertsAt(int64_t window) const {
    auto it = alerts_.find(window);
    return it == alerts_.end() ? nullptr : &it->second;
  }

 private:
  void CloseWindow() {
    ReplayRegret r;
    r.window_index = windows_;
    r.queries = window_queries_;
    r.queries_total = queries_;
    r.window_cost = window_cost_;
    r.total_cost = total_cost_;
    regrets_.push_back(r);
    ++windows_;
    window_queries_ = 0;
    window_cost_ = 0.0;
  }

  int64_t window_;
  std::map<uint32_t, obs::AuditArcTally> epoch_;
  std::map<int64_t, std::vector<obs::DriftEvent>> drift_;
  std::map<int64_t, std::vector<obs::AlertEvent>> alerts_;
  std::vector<DecisionCertificateEvent> certificates_;
  std::vector<std::vector<obs::AuditArcTally>> epoch_arcs_;
  std::vector<ReplayRegret> regrets_;
  int64_t queries_ = 0;
  int64_t window_queries_ = 0;
  int64_t windows_ = 0;
  double total_cost_ = 0.0;
  double window_cost_ = 0.0;
};

class Verifier {
 public:
  void Mismatch(const std::string& where, const std::string& what) {
    ++mismatches_;
    if (mismatches_ <= kMaxPrinted) {
      std::printf("MISMATCH %s: %s\n", where.c_str(), what.c_str());
    } else if (mismatches_ == kMaxPrinted + 1) {
      std::printf("... further mismatches suppressed\n");
    }
  }

  void ExpectInt(const std::string& where, const char* field, int64_t got,
                 int64_t want) {
    if (got == want) return;
    Mismatch(where, StrFormat("%s is %lld, re-derived %lld", field,
                              static_cast<long long>(got),
                              static_cast<long long>(want)));
  }

  // Doubles compare bit-for-bit: the file round-trips at 17 significant
  // digits and we recompute through the same code path, so any
  // difference at all is a real disagreement.
  void ExpectNum(const std::string& where, const char* field, double got,
                 double want) {
    if (got == want) return;
    Mismatch(where, StrFormat("%s is %s, re-derived %s", field,
                              FormatDouble(got, 17).c_str(),
                              FormatDouble(want, 17).c_str()));
  }

  void ExpectStr(const std::string& where, const char* field,
                 const std::string& got, const std::string& want) {
    if (got == want) return;
    Mismatch(where, StrFormat("%s is \"%s\", trace says \"%s\"", field,
                              got.c_str(), want.c_str()));
  }

  int64_t mismatches() const { return mismatches_; }

 private:
  static constexpr int64_t kMaxPrinted = 50;
  int64_t mismatches_ = 0;
};

// True when x is (within float round-off) a positive integer; used for
// schedule divisors the certificate does not carry explicitly (the
// neighbourhood size in PALO's stop test, the experiment count in
// PAO's delta/(2n) split).
bool IsPositiveIntegral(double x) {
  if (!(x >= 0.5)) return false;
  double nearest = std::round(x);
  return std::fabs(x - nearest) <= 1e-9 * std::max(1.0, std::fabs(nearest));
}

bool ValidDelta(double delta) { return delta > 0.0 && delta < 1.0; }

std::string Where(const AuditCertificate& cert) {
  const DecisionCertificateEvent& e = cert.event;
  return StrFormat("cert %lld (%s %s %s)",
                   static_cast<long long>(cert.seq), e.learner.c_str(),
                   e.decision.c_str(), e.verdict.c_str());
}

// The file's certificate must be a field-for-field transcript of the
// decision_certificate event the run traced.
void CheckStreamAgreement(Verifier* v, const AuditCertificate& cert,
                          const DecisionCertificateEvent& t) {
  const DecisionCertificateEvent& e = cert.event;
  std::string where = Where(cert);
  v->ExpectStr(where, "learner", e.learner, t.learner);
  v->ExpectStr(where, "decision", e.decision, t.decision);
  v->ExpectStr(where, "verdict", e.verdict, t.verdict);
  v->ExpectInt(where, "t_us", e.t_us, t.t_us);
  v->ExpectInt(where, "at_context", e.at_context, t.at_context);
  v->ExpectInt(where, "samples", e.samples, t.samples);
  v->ExpectInt(where, "trials", e.trials, t.trials);
  v->ExpectInt(where, "subject", e.subject, t.subject);
  v->ExpectNum(where, "mean", e.mean, t.mean);
  v->ExpectNum(where, "delta_sum", e.delta_sum, t.delta_sum);
  v->ExpectNum(where, "threshold", e.threshold, t.threshold);
  v->ExpectNum(where, "margin", e.margin, t.margin);
  v->ExpectNum(where, "range", e.range, t.range);
  v->ExpectNum(where, "epsilon_n", e.epsilon_n, t.epsilon_n);
  v->ExpectNum(where, "delta_step", e.delta_step, t.delta_step);
  v->ExpectNum(where, "delta_budget", e.delta_budget, t.delta_budget);
  v->ExpectNum(where, "delta_spent_total", e.delta_spent_total,
               t.delta_spent_total);
  v->ExpectInt(where, "bound_samples", e.bound_samples, t.bound_samples);
  v->ExpectNum(where, "epsilon", e.epsilon, t.epsilon);
}

// The certificate's "arcs" epoch tallies must equal the tallies
// re-accumulated from the raw arc_attempt events since the previous
// certificate.
void CheckArcTallies(Verifier* v, const AuditCertificate& cert,
                     const std::vector<obs::AuditArcTally>& replayed) {
  std::string where = Where(cert);
  if (cert.arcs.size() != replayed.size()) {
    v->Mismatch(where,
                StrFormat("certificate tallies %zu arcs, the raw stream "
                          "has %zu in this epoch",
                          cert.arcs.size(), replayed.size()));
    return;
  }
  for (size_t i = 0; i < replayed.size(); ++i) {
    const obs::AuditArcTally& a = cert.arcs[i];
    const obs::AuditArcTally& b = replayed[i];
    std::string arc_where = StrFormat("%s arc %lld", where.c_str(),
                                      static_cast<long long>(b.arc));
    v->ExpectInt(arc_where, "arc", a.arc, b.arc);
    v->ExpectInt(arc_where, "experiment", a.experiment, b.experiment);
    v->ExpectInt(arc_where, "attempts", a.attempts, b.attempts);
    v->ExpectInt(arc_where, "successes", a.successes, b.successes);
    v->ExpectNum(arc_where, "cost", a.cost, b.cost);
  }
}

// Recovery certificates record a count-based test, not a Hoeffding
// bound: delta_sum is the number of trigger transitions that matched
// the firing rule in the decision window, tested against threshold 1,
// and no delta is ever charged (recovery resets evidence, it does not
// certify a cost claim). When the policy file is supplied the matched
// count is re-derived by recounting the trace's drift/alert
// transitions at the certificate's window through the same
// MatchesTrigger predicate the controller used; without it only the
// structural identities are checkable.
void CheckRecoveryMath(Verifier* v, const AuditCertificate& cert,
                       const robust::RecoveryPolicy* policy,
                       const ReplaySink& replay) {
  const DecisionCertificateEvent& e = cert.event;
  std::string where = Where(cert);
  if (!robust::IsKnownRecoveryAction(e.verdict)) {
    v->Mismatch(where, StrFormat("\"%s\" is not a recovery action",
                                 e.verdict.c_str()));
  }
  v->ExpectInt(where, "trials", e.trials, 1);
  v->ExpectNum(where, "threshold", e.threshold, 1.0);
  v->ExpectNum(where, "delta_step", e.delta_step, 0.0);
  v->ExpectNum(where, "delta_budget", e.delta_budget, 0.0);
  v->ExpectNum(where, "delta_sum", e.delta_sum,
               static_cast<double>(e.samples));
  if (e.samples < 1) {
    v->Mismatch(where, "recovery fired on zero matched transitions");
  }
  if (policy == nullptr) return;
  const robust::RecoveryRule* rule = nullptr;
  for (const robust::RecoveryRule& r : policy->rules) {
    if (r.id == e.decision) {
      rule = &r;
      break;
    }
  }
  if (rule == nullptr) {
    v->Mismatch(where,
                StrFormat("certificate names rule \"%s\" which the "
                          "supplied policy does not define",
                          e.decision.c_str()));
    return;
  }
  if (rule->action != e.verdict) {
    v->Mismatch(where,
                StrFormat("policy rule \"%s\" maps to action \"%s\", "
                          "not \"%s\"",
                          rule->id.c_str(), rule->action.c_str(),
                          e.verdict.c_str()));
  }
  int64_t matched = 0;
  if (const std::vector<obs::DriftEvent>* drift =
          replay.DriftAt(e.at_context)) {
    for (const obs::DriftEvent& t : *drift) {
      if (robust::MatchesTrigger(*rule, t)) ++matched;
    }
  }
  if (const std::vector<obs::AlertEvent>* alerts =
          replay.AlertsAt(e.at_context)) {
    for (const obs::AlertEvent& t : *alerts) {
      if (robust::MatchesTrigger(*rule, t)) ++matched;
    }
  }
  v->ExpectInt(where, "samples (matched transitions)", e.samples, matched);
}

// Re-derive the statistical content of one certificate from its counts.
// Each (learner, decision) pair recomputes delta_step, threshold,
// epsilon_n and bound_samples through the same stats functions the
// learner called, so agreement is bit-exact.
void CheckMath(Verifier* v, const AuditCertificate& cert,
               const robust::RecoveryPolicy* policy,
               const ReplaySink& replay) {
  const DecisionCertificateEvent& e = cert.event;
  std::string where = Where(cert);

  // Universal identities.
  v->ExpectNum(where, "margin", e.margin, e.delta_sum - e.threshold);
  if (!(e.delta_spent_total <= e.delta_budget)) {
    v->Mismatch(where, StrFormat("delta ledger overspent: %s > budget %s",
                                 FormatDouble(e.delta_spent_total, 17).c_str(),
                                 FormatDouble(e.delta_budget, 17).c_str()));
  }
  bool wants_crossed = e.verdict == "commit" || e.verdict == "met" ||
                       (e.verdict == "stop" && e.learner == "pib1") ||
                       e.learner == "recovery";
  bool wants_below = e.verdict == "reject" ||
                     (e.verdict == "stop" && e.learner == "palo");
  if (wants_crossed && !(e.margin >= 0.0 && e.delta_sum > 0.0)) {
    v->Mismatch(where, "verdict claims the threshold was crossed but the "
                       "margin/delta_sum disagree");
  }
  if (wants_below && e.margin > 0.0) {
    v->Mismatch(where, "verdict claims the statistic stayed below the "
                       "threshold but the margin is positive");
  }
  if (!wants_crossed && !wants_below) {
    v->Mismatch(where, "unknown learner/decision/verdict combination");
    return;
  }

  if (e.learner == "recovery") {
    CheckRecoveryMath(v, cert, policy, replay);
  } else if (e.learner == "pib" && e.decision == "climb") {
    if (e.samples < 1 || e.trials < 1 || !ValidDelta(e.delta_budget) ||
        !(e.range > 0.0)) {
      v->Mismatch(where, "counts do not support a sequential test "
                         "(samples/trials/budget/range out of range)");
      return;
    }
    double delta_step = SequentialDelta(e.trials, e.delta_budget);
    v->ExpectNum(where, "delta_step", e.delta_step, delta_step);
    v->ExpectNum(where, "threshold", e.threshold,
                 SequentialSumThreshold(e.samples, e.trials, e.delta_budget,
                                        e.range));
    v->ExpectNum(where, "epsilon_n", e.epsilon_n,
                 ValidDelta(delta_step)
                     ? HoeffdingDeviation(e.samples, delta_step, e.range)
                     : 0.0);
    v->ExpectInt(where, "bound_samples", e.bound_samples,
                 e.mean > 0.0 && ValidDelta(delta_step)
                     ? SampleSizeForDeviation(e.mean, delta_step, e.range)
                     : 0);
  } else if (e.learner == "palo" && e.decision == "climb") {
    double half = e.delta_budget / 2.0;
    if (e.samples < 1 || e.trials < 1 || !ValidDelta(half) ||
        !(e.range > 0.0)) {
      v->Mismatch(where, "counts do not support a sequential test "
                         "(samples/trials/budget/range out of range)");
      return;
    }
    double delta_step = SequentialDelta(e.trials, half);
    v->ExpectNum(where, "delta_step", e.delta_step, delta_step);
    v->ExpectNum(where, "threshold", e.threshold,
                 SequentialSumThreshold(e.samples, e.trials, half, e.range));
    v->ExpectNum(where, "epsilon_n", e.epsilon_n,
                 ValidDelta(delta_step)
                     ? HoeffdingDeviation(e.samples, delta_step, e.range)
                     : 0.0);
    v->ExpectInt(where, "bound_samples", e.bound_samples,
                 e.mean > 0.0 && ValidDelta(delta_step)
                     ? SampleSizeForDeviation(e.mean, delta_step, e.range)
                     : 0);
  } else if (e.learner == "palo" && e.decision == "stop") {
    if (e.samples < 1 || e.trials < 1 || !ValidDelta(e.delta_budget) ||
        !(e.range > 0.0)) {
      v->Mismatch(where, "counts do not support a stop test "
                         "(samples/trials/budget/range out of range)");
      return;
    }
    // The stop schedule divides delta_i by the neighbourhood size |T|,
    // which the certificate does not carry: check the divisor is a
    // positive integer instead (the CheckStop fallback uses delta/2
    // directly when the scheduled value degenerates).
    double base = SequentialDelta(e.trials, e.delta_budget / 2.0);
    if (!ValidDelta(e.delta_step) ||
        (!IsPositiveIntegral(base / e.delta_step) &&
         e.delta_step != e.delta_budget / 2.0)) {
      v->Mismatch(where,
                  StrFormat("delta_step %s is not delta_i/|T| for any "
                            "neighbourhood size",
                            FormatDouble(e.delta_step, 17).c_str()));
    }
    v->ExpectNum(where, "threshold", e.threshold, e.epsilon);
    if (ValidDelta(e.delta_step)) {
      double dev = HoeffdingDeviation(e.samples, e.delta_step, e.range);
      v->ExpectNum(where, "epsilon_n", e.epsilon_n, dev);
      // The stop statistic is the worst upper certificate: mean + dev.
      v->ExpectNum(where, "delta_sum", e.delta_sum, e.mean + dev);
      v->ExpectInt(where, "bound_samples", e.bound_samples,
                   e.epsilon > 0.0
                       ? SampleSizeForDeviation(e.epsilon, e.delta_step,
                                                e.range)
                       : 0);
    }
  } else if (e.learner == "pib1" && e.decision == "stop") {
    if (e.samples < 1 || !ValidDelta(e.delta_budget) || !(e.range > 0.0)) {
      v->Mismatch(where, "counts do not support a one-shot test "
                         "(samples/budget/range out of range)");
      return;
    }
    // The one-shot filter spends the whole budget on its single test.
    v->ExpectNum(where, "delta_step", e.delta_step, e.delta_budget);
    v->ExpectNum(where, "delta_spent_total", e.delta_spent_total,
                 e.delta_budget);
    v->ExpectNum(where, "threshold", e.threshold,
                 SumThreshold(e.samples, e.delta_budget, e.range));
    v->ExpectNum(where, "epsilon_n", e.epsilon_n,
                 HoeffdingDeviation(e.samples, e.delta_budget, e.range));
    v->ExpectInt(where, "bound_samples", e.bound_samples,
                 e.mean > 0.0
                     ? SampleSizeForDeviation(e.mean, e.delta_budget, e.range)
                     : 0);
  } else if (e.learner == "pao" && e.decision == "quota") {
    if (e.samples < 0 || !ValidDelta(e.delta_budget)) {
      v->Mismatch(where, "counts do not support a quota certificate "
                         "(samples/budget out of range)");
      return;
    }
    // delta/(2n) split: n (the experiment count) is not in the
    // certificate, so check the implied divisor is a positive integer.
    if (!(e.delta_step > 0.0) ||
        !IsPositiveIntegral(e.delta_budget / (2.0 * e.delta_step))) {
      v->Mismatch(where,
                  StrFormat("delta_step %s is not delta/(2n) for any "
                            "experiment count n",
                            FormatDouble(e.delta_step, 17).c_str()));
    }
    v->ExpectNum(where, "range", e.range, 1.0);
    v->ExpectNum(where, "delta_sum", e.delta_sum,
                 static_cast<double>(e.samples));
    v->ExpectNum(where, "threshold", e.threshold,
                 static_cast<double>(e.bound_samples));
    v->ExpectNum(where, "epsilon_n", e.epsilon_n,
                 e.samples > 0 && ValidDelta(e.delta_step)
                     ? HoeffdingDeviation(e.samples, e.delta_step, 1.0)
                     : 0.0);
  } else {
    v->Mismatch(where, "unknown learner/decision pair");
  }
}

int Verify(const std::string& trace_path, const std::string& audit_path,
           const robust::RecoveryPolicy* policy) {
  Result<AuditFile> read = obs::ReadAuditLogFile(audit_path);
  if (!read.ok()) {
    std::fprintf(stderr, "audit_verify: %s\n",
                 read.status().message().c_str());
    return 2;
  }
  const AuditFile& file = read.value();

  std::ifstream trace(trace_path);
  if (!trace.good()) {
    std::fprintf(stderr, "audit_verify: cannot open %s\n",
                 trace_path.c_str());
    return 2;
  }
  ReplaySink replay(file.header.window);
  obs::TraceReader reader(&replay);
  Status replayed = reader.ReplayStream(trace);
  if (!replayed.ok()) {
    std::fprintf(stderr, "audit_verify: %s\n",
                 replayed.message().c_str());
    return 2;
  }
  replay.Finish();

  Verifier v;

  // Certificates: stream agreement, epoch tallies, and the math.
  size_t n = std::min(file.certificates.size(),
                      replay.certificates().size());
  if (file.certificates.size() != replay.certificates().size()) {
    v.Mismatch("stream",
               StrFormat("audit file has %zu certificates, the trace "
                         "recorded %zu decision_certificate events",
                         file.certificates.size(),
                         replay.certificates().size()));
  }
  std::map<std::string, double> ledgers;
  for (size_t i = 0; i < file.certificates.size(); ++i) {
    const AuditCertificate& cert = file.certificates[i];
    if (i < n) {
      CheckStreamAgreement(&v, cert, replay.certificates()[i]);
      CheckArcTallies(&v, cert, replay.epoch_arcs()[i]);
    }
    CheckMath(&v, cert, policy, replay);
    // Running ledger: the sum of emitted delta_steps, in order, must
    // reproduce delta_spent_total exactly (the learners accumulate the
    // same way) and stay within the budget.
    double& spent = ledgers[cert.event.learner];
    spent += cert.event.delta_step;
    v.ExpectNum(Where(cert), "delta_spent_total",
                cert.event.delta_spent_total, spent);
  }

  // Regret windows re-derived from the QueryEnd stream.
  size_t rn = std::min(file.regrets.size(), replay.regrets().size());
  if (file.regrets.size() != replay.regrets().size()) {
    v.Mismatch("stream",
               StrFormat("audit file has %zu regret windows, the trace "
                         "yields %zu",
                         file.regrets.size(), replay.regrets().size()));
  }
  for (size_t i = 0; i < rn; ++i) {
    const obs::AuditRegret& r = file.regrets[i];
    const ReplayRegret& t = replay.regrets()[i];
    std::string where =
        StrFormat("regret window %lld", static_cast<long long>(t.window_index));
    v.ExpectInt(where, "window_index", r.window_index, t.window_index);
    v.ExpectInt(where, "queries", r.queries, t.queries);
    v.ExpectInt(where, "queries_total", r.queries_total, t.queries_total);
    v.ExpectNum(where, "window_cost", r.window_cost, t.window_cost);
    v.ExpectNum(where, "total_cost", r.total_cost, t.total_cost);
    if (r.have_baselines != file.header.have_baselines) {
      v.Mismatch(where, "baseline fields disagree with the header");
    }
    if (r.have_baselines) {
      double incumbent = file.header.incumbent_expected_cost *
                         static_cast<double>(t.queries_total);
      double oracle = file.header.oracle_expected_cost *
                      static_cast<double>(t.queries_total);
      v.ExpectNum(where, "incumbent_total", r.incumbent_total, incumbent);
      v.ExpectNum(where, "oracle_total", r.oracle_total, oracle);
      v.ExpectNum(where, "regret_vs_incumbent", r.regret_vs_incumbent,
                  t.total_cost - incumbent);
      v.ExpectNum(where, "regret_vs_oracle", r.regret_vs_oracle,
                  t.total_cost - oracle);
    }
  }

  // Summary: counters against both streams.
  if (!file.summary.present) {
    v.Mismatch("summary", "audit file has no summary record (truncated?)");
  } else {
    const obs::AuditSummary& s = file.summary;
    int64_t commits = 0, rejects = 0, stops = 0, quotas_met = 0;
    for (const AuditCertificate& cert : file.certificates) {
      if (cert.event.verdict == "commit") ++commits;
      else if (cert.event.verdict == "reject") ++rejects;
      else if (cert.event.verdict == "stop") ++stops;
      else if (cert.event.verdict == "met") ++quotas_met;
    }
    double spent_max = 0.0;
    bool budget_ok = true;
    for (const AuditCertificate& cert : file.certificates) {
      if (cert.event.delta_spent_total > spent_max) {
        spent_max = cert.event.delta_spent_total;
      }
      if (cert.event.delta_spent_total > cert.event.delta_budget) {
        budget_ok = false;
      }
    }
    v.ExpectInt("summary", "queries", s.queries, replay.queries());
    v.ExpectInt("summary", "certificates", s.certificates,
                static_cast<int64_t>(file.certificates.size()));
    v.ExpectInt("summary", "commits", s.commits, commits);
    v.ExpectInt("summary", "rejects", s.rejects, rejects);
    v.ExpectInt("summary", "stops", s.stops, stops);
    v.ExpectInt("summary", "quotas_met", s.quotas_met, quotas_met);
    v.ExpectNum("summary", "total_cost", s.total_cost, replay.total_cost());
    v.ExpectNum("summary", "delta_spent_total", s.delta_spent_total,
                spent_max);
    if (s.budget_ok != budget_ok) {
      v.Mismatch("summary",
                 StrFormat("budget_ok=%s disagrees with the stream (%s)",
                           s.budget_ok ? "true" : "false",
                           budget_ok ? "true" : "false"));
    }
    if (!budget_ok) {
      v.Mismatch("summary", "delta budget overspent");
    }
  }

  if (v.mismatches() > 0) {
    std::printf("audit_verify: FAIL (%lld mismatches over %zu certificates)\n",
                static_cast<long long>(v.mismatches()),
                file.certificates.size());
    return 1;
  }
  std::printf(
      "audit_verify: OK (%zu certificates, %zu regret windows, %lld "
      "queries re-derived)\n",
      file.certificates.size(), file.regrets.size(),
      static_cast<long long>(replay.queries()));
  return 0;
}

}  // namespace
}  // namespace stratlearn

int main(int argc, char** argv) {
  std::string policy_path;
  std::vector<std::string> positional;
  bool usage_error = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--recovery=", 0) == 0) {
      policy_path = arg.substr(11);
      if (policy_path.empty()) usage_error = true;
    } else if (arg.rfind("--", 0) == 0) {
      usage_error = true;
    } else {
      positional.push_back(arg);
    }
  }
  if (usage_error || positional.size() != 2) {
    std::fprintf(stderr,
                 "usage: audit_verify <trace.jsonl> <audit.jsonl> "
                 "[--recovery=<policy>]\n"
                 "  replays the raw event trace and re-derives every "
                 "decision certificate\n"
                 "  in the audit log; with --recovery, recovery "
                 "certificates' matched-transition\n"
                 "  counts are re-derived against the policy; exit 0 "
                 "clean, 1 mismatch, 2 usage\n"
                 "  or malformed input\n");
    return 2;
  }
  stratlearn::robust::RecoveryPolicy policy;
  bool have_policy = false;
  if (!policy_path.empty()) {
    std::ifstream in(policy_path);
    if (!in.good()) {
      std::fprintf(stderr, "audit_verify: cannot open %s\n",
                   policy_path.c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    stratlearn::verify::DiagnosticSink sink;
    sink.set_file(policy_path);
    policy = stratlearn::verify::ParseRecoveryPolicy(buffer.str(), &sink);
    if (sink.HasBlocking()) {
      std::fputs(sink.RenderText().c_str(), stderr);
      return 2;
    }
    have_policy = true;
  }
  return stratlearn::Verify(positional[0], positional[1],
                            have_policy ? &policy : nullptr);
}
