#ifndef STRATLEARN_ROBUST_RECOVERY_POLICY_H_
#define STRATLEARN_ROBUST_RECOVERY_POLICY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/events.h"

namespace stratlearn::robust {

/// One trigger -> action mapping from a "stratlearn-recovery v1" policy
/// file. Triggers name health-monitor transitions:
///   drift:p_hat | drift:any
///       the p̂ drift detector entered "detected" in the closed window
///   alert:<rule-id> | alert:any
///       an alert rule entered "firing" in the closed window
/// The one action is "rebaseline": PIB drops its Delta~ sums and starts
/// a fresh test epoch on its current strategy. It is the only reaction
/// that beat a no-reaction control when the optimum moves (EXPERIMENTS.md
/// "Re-convergence after a transient drift").
struct RecoveryRule {
  std::string id;
  std::string trigger;
  std::string action;
  /// Windows to suppress re-firing of this rule after it fires. 0 = may
  /// fire every window.
  int64_t cooldown = 0;
};

/// A parsed recovery policy.
struct RecoveryPolicy {
  std::vector<RecoveryRule> rules;
};

inline bool IsKnownRecoveryAction(const std::string& action) {
  return action == "rebaseline";
}

/// Trigger matching is deliberately header-inline: the live controller,
/// the decide-only resume/offline replays and tools/audit_verify's
/// certificate re-derivation must all count the *same* transitions.
inline bool MatchesTrigger(const RecoveryRule& rule,
                           const obs::DriftEvent& e) {
  return e.state == "detected" &&
         (rule.trigger == "drift:any" || rule.trigger == "drift:" + e.detector);
}

inline bool MatchesTrigger(const RecoveryRule& rule,
                           const obs::AlertEvent& e) {
  return e.state == "firing" &&
         (rule.trigger == "alert:any" || rule.trigger == "alert:" + e.rule);
}

}  // namespace stratlearn::robust

#endif  // STRATLEARN_ROBUST_RECOVERY_POLICY_H_
