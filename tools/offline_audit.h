#ifndef STRATLEARN_TOOLS_OFFLINE_AUDIT_H_
#define STRATLEARN_TOOLS_OFFLINE_AUDIT_H_

#include <string>

namespace stratlearn::tools {

/// Offline audit report: parses a "stratlearn-audit v1" file (see
/// obs::AuditLog) and renders a deterministic convergence report — the
/// certificate table with per-decision efficiency ratios (samples used
/// vs. the Theorem 1-3 bound m(d_i)), the per-learner delta-budget
/// ledger, the regret curve, and the run summary. `format` is "text"
/// or "json"; the JSON rendering is byte-deterministic for a given
/// input file. Backs `stratlearn_cli audit`.
///
/// Exit contract: 0 clean, 1 findings (the errors of verify's V-AUD
/// passes: a broken or overspent delta ledger, a non-conservative
/// certificate, a summary that disagrees with its stream), 2 usage
/// error (bad flags, unreadable or malformed audit file).
int RunOfflineAudit(const std::string& audit_path, const std::string& format);

}  // namespace stratlearn::tools

#endif  // STRATLEARN_TOOLS_OFFLINE_AUDIT_H_
