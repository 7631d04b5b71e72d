#include "offline_audit.h"

#include <cstdio>
#include <map>
#include <vector>

#include "obs/audit/audit_reader.h"
#include "obs/json_writer.h"
#include "util/string_util.h"
#include "verify/verify.h"

namespace stratlearn::tools {

namespace {

/// Per-learner ledger state reconstructed from the certificate stream.
struct LedgerRow {
  double spent = 0.0;
  double budget = 0.0;
  int64_t certificates = 0;
};

/// The report's findings: the errors verify's V-AUD passes report on
/// the same stream, one line each.
std::vector<std::string> Findings(const obs::AuditFile& file) {
  verify::DiagnosticSink sink;
  verify::VerifyAuditFile(file, &sink);
  std::vector<std::string> findings;
  for (const verify::Diagnostic& d : sink.diagnostics()) {
    if (d.severity == verify::Severity::kError) findings.push_back(d.Brief());
  }
  return findings;
}

std::map<std::string, LedgerRow> BuildLedger(const obs::AuditFile& file) {
  std::map<std::string, LedgerRow> ledger;
  for (const obs::AuditCertificate& cert : file.certificates) {
    LedgerRow& row = ledger[cert.event.learner];
    row.spent = cert.event.delta_spent_total;
    row.budget = cert.event.delta_budget;
    ++row.certificates;
  }
  return ledger;
}

/// samples / m(d_i): < 1 means the decision fired before the
/// worst-case Theorem 1-3 bound — the efficiency the paper's
/// sequential tests buy. "-" when no closed-form bound applies.
std::string Efficiency(const obs::DecisionCertificateEvent& e) {
  if (e.bound_samples <= 0) return "-";
  return FormatDouble(static_cast<double>(e.samples) /
                          static_cast<double>(e.bound_samples),
                      4);
}

void RenderText(const obs::AuditFile& file,
                const std::vector<std::string>& findings) {
  std::printf("audit report (stratlearn-audit v1)\n");
  std::printf(
      "  window %lld queries, delta budget %s, baselines %s\n\n",
      static_cast<long long>(file.header.window),
      FormatDouble(file.header.delta_budget, 6).c_str(),
      file.header.have_baselines ? "yes" : "no");

  std::printf("certificates (%zu):\n", file.certificates.size());
  std::printf("  %4s %-5s %-6s %-7s %9s %8s %8s %10s %12s %12s\n", "seq",
              "who", "what", "verdict", "context", "samples", "bound",
              "efficiency", "margin", "spent");
  for (const obs::AuditCertificate& cert : file.certificates) {
    const obs::DecisionCertificateEvent& e = cert.event;
    std::printf("  %4lld %-5s %-6s %-7s %9lld %8lld %8lld %10s %12s %12s\n",
                static_cast<long long>(cert.seq), e.learner.c_str(),
                e.decision.c_str(), e.verdict.c_str(),
                static_cast<long long>(e.at_context),
                static_cast<long long>(e.samples),
                static_cast<long long>(e.bound_samples),
                Efficiency(e).c_str(), FormatDouble(e.margin, 6).c_str(),
                FormatDouble(e.delta_spent_total, 6).c_str());
  }

  std::printf("\ndelta ledger:\n");
  for (const auto& [learner, row] : BuildLedger(file)) {
    std::printf("  %-5s %lld certificates, spent %s of %s (%s)\n",
                learner.c_str(), static_cast<long long>(row.certificates),
                FormatDouble(row.spent, 6).c_str(),
                FormatDouble(row.budget, 6).c_str(),
                row.spent <= row.budget ? "within budget" : "OVER BUDGET");
  }

  if (!file.regrets.empty()) {
    std::printf("\nregret curve (%zu windows):\n", file.regrets.size());
    std::printf("  %6s %9s %12s %12s", "window", "queries", "window_cost",
                "total_cost");
    if (file.header.have_baselines) {
      std::printf(" %14s %14s", "vs_incumbent", "vs_oracle");
    }
    std::printf("\n");
    for (const obs::AuditRegret& r : file.regrets) {
      std::printf("  %6lld %9lld %12s %12s",
                  static_cast<long long>(r.window_index),
                  static_cast<long long>(r.queries_total),
                  FormatDouble(r.window_cost, 6).c_str(),
                  FormatDouble(r.total_cost, 6).c_str());
      if (file.header.have_baselines) {
        std::printf(" %14s %14s",
                    FormatDouble(r.regret_vs_incumbent, 6).c_str(),
                    FormatDouble(r.regret_vs_oracle, 6).c_str());
      }
      std::printf("\n");
    }
  }

  if (file.summary.present) {
    const obs::AuditSummary& s = file.summary;
    std::printf(
        "\nsummary: %lld queries, %lld certificates (%lld commits, %lld "
        "rejects, %lld stops, %lld quotas met), total cost %s\n",
        static_cast<long long>(s.queries),
        static_cast<long long>(s.certificates),
        static_cast<long long>(s.commits),
        static_cast<long long>(s.rejects), static_cast<long long>(s.stops),
        static_cast<long long>(s.quotas_met),
        FormatDouble(s.total_cost, 6).c_str());
  } else {
    std::printf("\nsummary: missing (truncated run?)\n");
  }

  if (findings.empty()) {
    std::printf("audit: clean\n");
  } else {
    std::printf("audit: %zu findings\n", findings.size());
    for (const std::string& finding : findings) {
      std::printf("  %s\n", finding.c_str());
    }
  }
}

void RenderJson(const obs::AuditFile& file,
                const std::vector<std::string>& findings) {
  obs::JsonWriter w(obs::JsonWriter::kRoundTripDigits);
  w.BeginObject();
  w.Key("schema").Value("stratlearn-audit-report-v1");
  w.Key("header").BeginObject();
  w.Key("window").Value(file.header.window);
  w.Key("delta_budget").Value(file.header.delta_budget);
  w.Key("have_baselines").Value(file.header.have_baselines);
  w.Key("incumbent_expected_cost")
      .Value(file.header.incumbent_expected_cost);
  w.Key("oracle_expected_cost").Value(file.header.oracle_expected_cost);
  w.EndObject();
  w.Key("certificates").BeginArray();
  for (const obs::AuditCertificate& cert : file.certificates) {
    const obs::DecisionCertificateEvent& e = cert.event;
    w.BeginObject();
    w.Key("seq").Value(cert.seq);
    w.Key("learner").Value(e.learner);
    w.Key("decision").Value(e.decision);
    w.Key("verdict").Value(e.verdict);
    w.Key("at_context").Value(e.at_context);
    w.Key("samples").Value(e.samples);
    w.Key("bound_samples").Value(e.bound_samples);
    if (e.bound_samples > 0) {
      w.Key("efficiency")
          .Value(static_cast<double>(e.samples) /
                 static_cast<double>(e.bound_samples));
    }
    w.Key("margin").Value(e.margin);
    w.Key("delta_step").Value(e.delta_step);
    w.Key("delta_spent_total").Value(e.delta_spent_total);
    w.EndObject();
  }
  w.EndArray();
  w.Key("ledger").BeginArray();
  for (const auto& [learner, row] : BuildLedger(file)) {
    w.BeginObject();
    w.Key("learner").Value(learner);
    w.Key("certificates").Value(row.certificates);
    w.Key("spent").Value(row.spent);
    w.Key("budget").Value(row.budget);
    w.Key("within_budget").Value(row.spent <= row.budget);
    w.EndObject();
  }
  w.EndArray();
  w.Key("regret").BeginArray();
  for (const obs::AuditRegret& r : file.regrets) {
    w.BeginObject();
    w.Key("window_index").Value(r.window_index);
    w.Key("queries_total").Value(r.queries_total);
    w.Key("window_cost").Value(r.window_cost);
    w.Key("total_cost").Value(r.total_cost);
    if (r.have_baselines) {
      w.Key("regret_vs_incumbent").Value(r.regret_vs_incumbent);
      w.Key("regret_vs_oracle").Value(r.regret_vs_oracle);
    }
    w.EndObject();
  }
  w.EndArray();
  if (file.summary.present) {
    const obs::AuditSummary& s = file.summary;
    w.Key("summary").BeginObject();
    w.Key("queries").Value(s.queries);
    w.Key("certificates").Value(s.certificates);
    w.Key("commits").Value(s.commits);
    w.Key("rejects").Value(s.rejects);
    w.Key("stops").Value(s.stops);
    w.Key("quotas_met").Value(s.quotas_met);
    w.Key("total_cost").Value(s.total_cost);
    w.Key("delta_spent_total").Value(s.delta_spent_total);
    w.Key("delta_budget").Value(s.delta_budget);
    w.Key("budget_ok").Value(s.budget_ok);
    w.EndObject();
  }
  w.Key("findings").BeginArray();
  for (const std::string& finding : findings) w.Value(finding);
  w.EndArray();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
}

}  // namespace

int RunOfflineAudit(const std::string& audit_path,
                    const std::string& format) {
  if (format != "text" && format != "json") {
    std::fprintf(stderr, "error: --format must be 'text' or 'json'\n");
    return 2;
  }
  Result<obs::AuditFile> file = obs::ReadAuditLogFile(audit_path);
  if (!file.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", audit_path.c_str(),
                 file.status().ToString().c_str());
    return 2;
  }
  std::vector<std::string> findings = Findings(*file);
  if (format == "json") {
    RenderJson(*file, findings);
  } else {
    RenderText(*file, findings);
  }
  return findings.empty() ? 0 : 1;
}

}  // namespace stratlearn::tools
