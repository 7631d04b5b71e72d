#ifndef STRATLEARN_ROBUST_RECOVERY_CONTROLLER_H_
#define STRATLEARN_ROBUST_RECOVERY_CONTROLLER_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/pib.h"
#include "obs/health/monitor.h"
#include "obs/observer.h"
#include "robust/recovery/policy.h"

namespace stratlearn::robust {

/// Executes a "stratlearn-recovery v1" policy against the health
/// monitor's window stream: install `Hook()` via
/// HealthMonitor::set_recovery_hook and every closed window's
/// drift/alert transitions are matched against the policy's rules, and
/// each rule that fires rebaselines the bound PIB learner instead of
/// cold-restarting it.
///
/// The controller has two modes. In decide-only mode (the default) it
/// records which rules fire — this is what offline `health` replays
/// and the resume path use, and it is a pure function of the window
/// sequence, so online and offline transcripts match byte for byte.
/// After set_live(true) it additionally *executes* each action on the
/// bound learner (without one the outcome degrades to
/// "skipped_unsupported") and emits one RecoveryEvent plus, on audit
/// runs, one decision certificate per action, so tools/audit_verify
/// can re-derive why recovery fired from the trace alone.
///
/// Cooldown state is not checkpointed: a resumed run rebuilds it by
/// replaying the restored windows through this hook in decide-only
/// mode before going live.
class RecoveryController {
 public:
  explicit RecoveryController(RecoveryPolicy policy)
      : policy_(std::move(policy)) {}

  const RecoveryPolicy& policy() const { return policy_; }

  /// Live-action targets, both optional. Bound after construction
  /// because the learner is built after the observer setup that
  /// installs the hook.
  void BindPib(Pib* pib) { pib_ = pib; }
  void BindObserver(obs::Observer* observer) { observer_ = observer; }

  /// Decide-only (false, default) vs live execution (true).
  void set_live(bool live) { live_ = live; }
  bool live() const { return live_; }

  /// The monitor hook: decides which rules fire on this window's
  /// transitions (and executes them when live). A rule fires at most
  /// once per window, and its cooldown suppresses re-firing for that
  /// many subsequent windows.
  std::vector<obs::health::RecoveryLogEntry> OnWindow(
      const obs::TimeSeriesWindow& window,
      const std::vector<obs::DriftEvent>& drift,
      const std::vector<obs::AlertEvent>& alerts);

  /// Adapter for HealthMonitor::set_recovery_hook. The controller must
  /// outlive the monitor's hook.
  obs::health::RecoveryHook Hook();

  int64_t decisions() const { return decisions_; }
  int64_t actions_applied() const { return applied_; }

 private:
  /// Matched-transition tally for one rule in one window, echoing the
  /// first matching transition's numbers for the event.
  struct Match {
    int64_t count = 0;
    double statistic = 0.0;
    double reference = 0.0;
    double threshold = 0.0;
  };

  bool PassesCooldown(const RecoveryRule& rule, int64_t window) const;
  void Fire(const RecoveryRule& rule, const obs::TimeSeriesWindow& window,
            const Match& match,
            std::vector<obs::health::RecoveryLogEntry>* out);

  RecoveryPolicy policy_;
  bool live_ = false;
  Pib* pib_ = nullptr;
  obs::Observer* observer_ = nullptr;
  /// Last window each rule id fired in.
  std::map<std::string, int64_t> last_fired_;
  int64_t decisions_ = 0;
  int64_t applied_ = 0;
};

}  // namespace stratlearn::robust

#endif  // STRATLEARN_ROBUST_RECOVERY_CONTROLLER_H_
