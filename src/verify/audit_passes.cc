// Audit-log passes (V-AUD...): structural and statistical vetting of
// "stratlearn-audit v1" decision-certificate streams (obs::AuditLog).
//
// These are the cheap always-on checks an archived audit file must
// survive before anyone trusts its certificates: the stream parses,
// the per-learner delta ledger is monotone and never overspends its
// budget, every verdict agrees with the sign of its margin, and the
// summary's counters match the stream it closes. The expensive
// re-derivation against the raw event trace lives in tools/audit_verify,
// which recomputes every threshold through the stats layer.

#include <map>
#include <sstream>

#include "obs/audit/audit_reader.h"
#include "util/string_util.h"
#include "verify/diagnostics.h"
#include "verify/verify.h"

namespace stratlearn::verify {

void VerifyAuditText(std::string_view text, DiagnosticSink* sink) {
  std::istringstream in{std::string(text)};
  Result<obs::AuditFile> read = obs::ReadAuditLog(in);
  if (!read.ok()) {
    sink->Error("V-AUD001", "",
                StrFormat("not a valid stratlearn-audit v1 stream: %s",
                          read.status().message().c_str()),
                "regenerate with --audit-out; partial copies and hand "
                "edits are not recoverable");
    return;
  }
  VerifyAuditFile(*read, sink);
}

void VerifyAuditFile(const obs::AuditFile& file, DiagnosticSink* sink) {
  // Ledger discipline: per learner, delta_spent_total must advance by
  // exactly delta_step per certificate, never go down, and stay within
  // the budget the certificate itself declares.
  struct Ledger {
    double spent = 0.0;
    bool reported_sum = false;
  };
  std::map<std::string, Ledger> ledgers;
  for (const obs::AuditCertificate& cert : file.certificates) {
    const obs::DecisionCertificateEvent& e = cert.event;
    std::string location = StrFormat("line %lld", (long long)cert.line);
    Ledger& ledger = ledgers[e.learner];
    ledger.spent += e.delta_step;
    if (e.delta_step < 0.0) {
      sink->Error("V-AUD002", location,
                  StrFormat("certificate %lld: %s ledger went down by %s",
                            (long long)cert.seq, e.learner.c_str(),
                            FormatDouble(-e.delta_step, 17).c_str()),
                  "every decision spends part of the delta budget; a "
                  "negative delta_step refunds confidence no test earned");
    }
    if (e.delta_spent_total != ledger.spent && !ledger.reported_sum) {
      ledger.reported_sum = true;  // one report per learner, not per line
      sink->Error("V-AUD002", location,
                  StrFormat("certificate %lld: %s ledger reads %s but the "
                            "emitted delta_steps sum to %s",
                            (long long)cert.seq, e.learner.c_str(),
                            FormatDouble(e.delta_spent_total, 17).c_str(),
                            FormatDouble(ledger.spent, 17).c_str()),
                  "the delta ledger must be the running sum of the "
                  "emitted certificates' delta_step values");
    }
    if (e.delta_spent_total > e.delta_budget) {
      sink->Error("V-AUD002", location,
                  StrFormat("certificate %lld: %s overspent its delta "
                            "budget (%s > %s)",
                            (long long)cert.seq, e.learner.c_str(),
                            FormatDouble(e.delta_spent_total, 17).c_str(),
                            FormatDouble(e.delta_budget, 17).c_str()),
                  "Theorem 1's lifetime confidence no longer holds for "
                  "this run");
    }
    // Verdict/margin agreement: a commit, quota-met or PIB_1 stop
    // claims the statistic crossed its threshold; a reject or PALO
    // stop claims it stayed below. Recovery certificates always claim
    // a crossing: their test is "matched transitions >= 1" and the
    // verdict names the action taken, not a commit/reject outcome.
    bool wants_crossed = e.verdict == "commit" || e.verdict == "met" ||
                         (e.verdict == "stop" && e.learner == "pib1") ||
                         e.learner == "recovery";
    bool wants_below = e.verdict == "reject" ||
                       (e.verdict == "stop" && e.learner == "palo");
    if (wants_crossed && e.margin < 0.0) {
      sink->Error("V-AUD003", location,
                  StrFormat("certificate %lld: verdict \"%s\" but the "
                            "margin is negative (%s)",
                            (long long)cert.seq, e.verdict.c_str(),
                            FormatDouble(e.margin, 17).c_str()),
                  "a crossing verdict with a negative margin is not "
                  "conservative: the decision was not justified by the "
                  "recorded statistics");
    } else if (wants_below && e.margin > 0.0) {
      sink->Error("V-AUD003", location,
                  StrFormat("certificate %lld: verdict \"%s\" but the "
                            "margin is positive (%s)",
                            (long long)cert.seq, e.verdict.c_str(),
                            FormatDouble(e.margin, 17).c_str()));
    } else if (!wants_crossed && !wants_below) {
      sink->Error("V-AUD003", location,
                  StrFormat("certificate %lld: unknown learner/verdict "
                            "combination \"%s\"/\"%s\"",
                            (long long)cert.seq, e.learner.c_str(),
                            e.verdict.c_str()));
    }
    if (e.learner == "recovery" &&
        !robust::IsKnownRecoveryAction(e.verdict)) {
      sink->Error("V-AUD003", location,
                  StrFormat("certificate %lld: \"%s\" is not a recovery "
                            "action",
                            (long long)cert.seq, e.verdict.c_str()));
    }
    if (e.margin != e.delta_sum - e.threshold) {
      sink->Error("V-AUD003", location,
                  StrFormat("certificate %lld: margin %s != delta_sum - "
                            "threshold (%s)",
                            (long long)cert.seq,
                            FormatDouble(e.margin, 17).c_str(),
                            FormatDouble(e.delta_sum - e.threshold, 17)
                                .c_str()));
    }
  }

  // Summary agreement with the stream it closes. A missing summary is
  // a warning (the run may have crashed before Close), a disagreeing
  // one is an error.
  if (!file.summary.present) {
    sink->Warning("V-AUD004", "",
                  "audit stream has no summary record",
                  "the run likely ended before the log was closed; the "
                  "certificates above are still individually valid");
    return;
  }
  const obs::AuditSummary& s = file.summary;
  std::string location = StrFormat("line %lld", (long long)s.line);
  int64_t commits = 0, rejects = 0, stops = 0, quotas_met = 0;
  double spent_max = 0.0;
  bool budget_ok = true;
  for (const obs::AuditCertificate& cert : file.certificates) {
    const obs::DecisionCertificateEvent& e = cert.event;
    if (e.verdict == "commit") ++commits;
    else if (e.verdict == "reject") ++rejects;
    else if (e.verdict == "stop") ++stops;
    else if (e.verdict == "met") ++quotas_met;
    if (e.delta_spent_total > spent_max) spent_max = e.delta_spent_total;
    if (e.delta_spent_total > e.delta_budget) budget_ok = false;
  }
  if (s.certificates != (int64_t)file.certificates.size() ||
      s.commits != commits || s.rejects != rejects || s.stops != stops ||
      s.quotas_met != quotas_met) {
    sink->Error("V-AUD004", location,
                StrFormat("summary counts certificates=%lld commits=%lld "
                          "rejects=%lld stops=%lld quotas_met=%lld but the "
                          "stream holds %zu/%lld/%lld/%lld/%lld",
                          (long long)s.certificates, (long long)s.commits,
                          (long long)s.rejects, (long long)s.stops,
                          (long long)s.quotas_met, file.certificates.size(),
                          (long long)commits, (long long)rejects,
                          (long long)stops, (long long)quotas_met));
  }
  if (s.delta_spent_total != spent_max) {
    sink->Error("V-AUD004", location,
                StrFormat("summary delta_spent_total %s does not match the "
                          "stream's maximum ledger %s",
                          FormatDouble(s.delta_spent_total, 17).c_str(),
                          FormatDouble(spent_max, 17).c_str()));
  }
  if (s.budget_ok != budget_ok) {
    sink->Error("V-AUD004", location,
                StrFormat("summary budget_ok=%s disagrees with the "
                          "stream (%s)",
                          s.budget_ok ? "true" : "false",
                          budget_ok ? "true" : "false"));
  }
  if (!budget_ok) {
    sink->Error("V-AUD002", location, "run overspent its delta budget");
  }
  if (sink->num_errors() == 0) {
    sink->Note("V-AUD000", "",
               StrFormat("%zu certificates, delta ledger %s of %s spent",
                         file.certificates.size(),
                         FormatDouble(s.delta_spent_total, 6).c_str(),
                         FormatDouble(s.delta_budget, 6).c_str()));
  }
}

}  // namespace stratlearn::verify
