#ifndef STRATLEARN_ENGINE_ADAPTIVE_QP_H_
#define STRATLEARN_ENGINE_ADAPTIVE_QP_H_

#include <cstdint>
#include <vector>

#include "engine/query_processor.h"
#include "robust/fault_injector.h"
#include "stats/counters.h"
#include "util/status.h"

namespace stratlearn {

/// The adaptive query processor QP^A of Section 4.1. A fixed strategy
/// cannot guarantee samples of every retrieval (if D_p always succeeds,
/// D_g is never attempted), so QP^A re-plans per context: it *aims* at
/// the experiment with the largest remaining sample quota by putting that
/// experiment's root path first, then answers the query normally with the
/// remaining arcs in default order. Each context still gets answered;
/// sampling is a side effect, as the paper's unobtrusiveness goal
/// requires. An aiming strategy depends only on its target, so the
/// constructor plans one per experiment, plus the depth-first strategy
/// for when every quota is met, and Process only picks one.
class AdaptiveQueryProcessor {
 public:
  /// Which events count against the quotas.
  enum class QuotaMode {
    /// Theorem 2: quota counts actual attempts of the experiment
    /// (retrieval samples).
    kAttempts,
    /// Theorem 3: quota counts attempted reaches (Definition 1) —
    /// arrivals plus aims blocked en route.
    kReachAttempts,
  };

  /// `quotas[i]` is the required number of samples of experiment i
  /// (Equation 7 or 8). An optional observer records qpa.* metrics and
  /// QuotaProgress events (and is forwarded to the inner processor).
  AdaptiveQueryProcessor(const InferenceGraph* graph,
                         std::vector<int64_t> quotas, QuotaMode mode,
                         obs::Observer* observer = nullptr);

  void set_observer(obs::Observer* observer);

  /// PAO's confidence/accuracy parameters, for the audit layer: each
  /// experiment whose Equation 7/8 quota is met emits one "quota"
  /// DecisionCertificateEvent whose delta_step is the per-experiment
  /// tail delta/(2n) the quota formulas allocate. Without this call (or
  /// with an observer that has audit disabled) no certificate is
  /// emitted.
  void set_audit_params(double delta, double epsilon);

  /// Forwards a fault injector to the inner processor: every context is
  /// then answered on the resilient path. Infra-failed attempts (retries
  /// exhausted, breaker open) carry no information about the
  /// experiment's true outcome, so Process excludes them from the
  /// Equation 7/8 quota accounting; an *aimed* experiment whose attempt
  /// infra-failed counts as a blocked aim instead.
  void set_fault_injector(robust::FaultInjector* injector) {
    processor_.set_fault_injector(injector);
  }

  /// Read-only view of the sampler's estimate state: per-experiment
  /// quotas, progress and measured frequencies. Self-contained, so it
  /// can outlive the processor (PaoResult carries one).
  struct Snapshot {
    struct Experiment {
      int64_t quota = 0;        // Equation 7/8 requirement
      int64_t remaining = 0;    // may be negative after overshoot
      int64_t attempts = 0;
      int64_t successes = 0;
      int64_t blocked_aims = 0;
      double p_hat = 0.5;       // success frequency (0.5 fallback)
      double reach_hat = 0.0;   // measured rho(e)
    };
    int64_t contexts = 0;
    bool quotas_met = false;
    std::vector<Experiment> experiments;
  };
  Snapshot snapshot() const;

  struct StepResult {
    Trace trace;
    /// Which experiment this context aimed at (-1 if all quotas were
    /// already met and a plain depth-first strategy was used).
    int aimed_experiment = -1;
    /// Whether the aimed experiment was actually attempted.
    bool reached = false;
  };

  /// Processes one context, updating counters and quotas.
  StepResult Process(const Context& context);

  /// True when every experiment's remaining quota is <= 0.
  bool QuotasMet() const;

  /// Remaining quota per experiment (may be negative after overshoot).
  const std::vector<int64_t>& remaining() const { return remaining_; }

  /// Per-experiment attempt/success/aim counters.
  const std::vector<ExperimentCounter>& counters() const { return counters_; }

  /// Success-frequency vector p^ (fallback 0.5 for never-attempted
  /// experiments, as in Theorem 3).
  std::vector<double> SuccessFrequencies(double fallback = 0.5) const;

  /// Total contexts processed.
  int64_t contexts_processed() const { return contexts_processed_; }

  /// Checkpointable sampler state: context count, remaining quotas and
  /// the per-experiment counter triples. Together with the workload RNG
  /// state this is everything needed to resume a PAO run mid-stream.
  struct Checkpoint {
    struct Counter {
      int64_t attempts = 0;
      int64_t successes = 0;
      int64_t blocked_aims = 0;
    };
    int64_t contexts = 0;
    std::vector<int64_t> remaining;
    std::vector<Counter> counters;
  };
  Checkpoint GetCheckpoint() const;
  /// Rejects checkpoints whose shape or invariants do not match this
  /// processor's graph; on error the processor is left unchanged.
  Status RestoreCheckpoint(const Checkpoint& checkpoint);

 private:
  /// Index of the experiment with the largest remaining quota (> 0), or
  /// -1 when all quotas are met.
  int PickTarget() const;

  const InferenceGraph* graph_;
  QueryProcessor processor_;
  /// aiming_[e + 1] is the strategy aimed at experiment e; aiming_[0],
  /// for target -1, is the depth-first strategy.
  std::vector<Strategy> aiming_;
  std::vector<int64_t> initial_quotas_;
  std::vector<int64_t> remaining_;
  QuotaMode mode_;
  std::vector<ExperimentCounter> counters_;
  /// The quotas before the current context (audit only), kept across
  /// contexts so the copy reuses its buffer.
  std::vector<int64_t> remaining_before_;
  int64_t contexts_processed_ = 0;
  /// Audit mode (set_audit_params): configured delta/epsilon and the
  /// running delta spend of emitted quota certificates.
  double audit_delta_ = 0.0;
  double audit_epsilon_ = 0.0;
  double audit_delta_spent_ = 0.0;
  obs::Observer* observer_ = nullptr;
  struct Handles {
    obs::Counter* contexts = nullptr;
    obs::Counter* blocked_aims = nullptr;
    obs::Gauge* quota_remaining = nullptr;
  };
  Handles handles_;
};

}  // namespace stratlearn

#endif  // STRATLEARN_ENGINE_ADAPTIVE_QP_H_
